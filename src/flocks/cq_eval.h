// Evaluation of extended conjunctive queries over a Database, producing
// *binding relations*: relations whose columns are named after the query's
// variables ("X") and parameters ("$s").
//
// This is the engine under both the flock evaluators (flocks/eval.h,
// flocks/naive_eval.h) and the plan executor (plan/executor.h). Positive
// subgoals become natural joins of per-subgoal binding relations;
// arithmetic subgoals become selections applied as soon as both sides are
// bound; negated subgoals become anti-joins applied once all their
// variables are bound (safety guarantees this point is reached).
#ifndef QF_FLOCKS_CQ_EVAL_H_
#define QF_FLOCKS_CQ_EVAL_H_

#include <map>
#include <string>
#include <vector>

#include "common/exec_env.h"
#include "common/status.h"
#include "datalog/ast.h"
#include "relational/database.h"
#include "relational/relation.h"

namespace qf {

class TupleSink;  // relational/spill.h

// Column name a term binds: variables map to their name, parameters to
// "$name". Constants have no column; callers must not ask.
std::string TermColumn(const Term& term);

// Resolves body predicates: first among `extra` relations (results of
// earlier plan steps), then in the database.
class PredicateResolver {
 public:
  explicit PredicateResolver(const Database& db) : db_(&db) {}
  PredicateResolver(const Database& db,
                    const std::map<std::string, const Relation*>& extra)
      : db_(&db), extra_(&extra) {}

  Result<const Relation*> Resolve(const std::string& name) const;

 private:
  const Database* db_;
  const std::map<std::string, const Relation*>* extra_ = nullptr;
};

// The binding relation of one relational subgoal over its base relation:
// one column per distinct variable/parameter of the subgoal, one row per
// base row matching the subgoal's constants and repeated terms. The scan
// runs through RunMorsels (common/thread_pool.h); the output rows and
// their order are identical for every thread count.
Relation SubgoalBindings(const Subgoal& subgoal, const Relation& base,
                         unsigned threads = 1, OpMetrics* metrics = nullptr,
                         QueryContext* ctx = nullptr);

struct CqEvalOptions {
  // Join order as positions into the query's list of *positive* subgoals
  // (0 = first positive subgoal in text order). Empty means text order.
  std::vector<std::size_t> join_order;
  // Yannakakis-style evaluation: when the positive part of the query is
  // alpha-acyclic (datalog/acyclic.h), run a full-reducer pass (two
  // semi-join sweeps over the join tree) before joining, and join in tree
  // order — dangling tuples never enter an intermediate. Overrides
  // join_order when a join tree exists; silently falls back to the normal
  // fold on cyclic queries.
  bool full_reducer = false;
  // Out-of-core streaming (relational/spill.h). When non-null AND the
  // governor's spill-activation rule fires at the final join, the
  // evaluation streams that join: each joined row has the still-pending
  // comparisons/negations applied, is projected onto output_columns, and
  // is Pushed into the sink instead of ever being materialized — the
  // sink's `engaged` flag is set and an *empty* relation is returned (the
  // caller reads the real result from the sink). When the rule does not
  // fire (or streaming does not apply, e.g. a pending predicate is not
  // bound by the joined schema), evaluation is exactly the conventional
  // materialized path and `engaged` stays false.
  TupleSink* sink = nullptr;
};

// Evaluates the body of `cq` and projects the bindings onto
// `output_columns` (deduplicated). Output columns must be bound by the
// body; unknown predicates, arity mismatches, or an unsafe body yield an
// error. Tracks the peak intermediate size in `peak_rows` when non-null
// (used by cost-model validation and the benches).
//
// `env`: the subgoal scans and the join fold run morsel-parallel with
// env.threads workers, preserving the one-piece row order (relational/ops.h
// on NaturalJoin). env.metrics receives one child per operator —
// "scan" per subgoal, then the fold chain ("join" / "select" /
// "anti_join", plus "semi_join" nodes for full-reducer sweeps) and a
// final "project". Under env.ctx every operator polls and charges its
// output, and the evaluation returns the context's typed error as soon as
// it latches, discarding intermediates.
Result<Relation> EvaluateConjunctiveBindings(
    const ConjunctiveQuery& cq, const PredicateResolver& resolver,
    const std::vector<std::string>& output_columns,
    const CqEvalOptions& options = {}, const ExecEnv& env = {},
    std::size_t* peak_rows = nullptr);

}  // namespace qf

#endif  // QF_FLOCKS_CQ_EVAL_H_
