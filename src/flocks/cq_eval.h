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

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/exec_env.h"
#include "common/status.h"
#include "datalog/ast.h"
#include "relational/database.h"
#include "relational/relation.h"

namespace qf {

class GroupTable;      // relational/ops.h
class SpillGroupSink;  // relational/spill.h

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
  // Per-node hook, DYNAMIC's §4.4 FILTER decision (optimizer/dynamic.h):
  // called with each positive leaf's bindings just before that leaf joins
  // (the first leaf before its ready comparisons and negations apply) and
  // with the running intermediate after each join and its ready
  // predicates. `at` names the point ("leaf <subgoal>", "after join k");
  // `env` is the fold's, so the hook's operators nest beside the joins.
  // The hook may replace the relation (with a semi-joined one); a non-OK
  // status stops the evaluation and is returned. While set, every join is
  // materialized so the hook sees it, and a streamed final stage projects
  // the last intermediate alone.
  std::function<Status(Relation& rel, const std::string& at,
                       const ExecEnv& env)>
      inspect = nullptr;
  // Streamed final stage (the flock evaluator's pipeline). When `groups`
  // is set, the final join is never materialized: each joined row runs
  // the still-pending comparisons and negations in place, is projected
  // onto output_columns into a reusable buffer and pushed into `groups`
  // — or, when `spill` is set and the governor's spill-activation rule
  // fires at that join, into `spill` (whose `engaged` flag is then set).
  // A body with one positive subgoal streams its binding rows the same
  // way. The evaluation then returns an empty relation; the caller reads
  // the sink.
  GroupTable* groups = nullptr;
  SpillGroupSink* spill = nullptr;
  // Serial row sink, used when `groups` is null: the final stage streams
  // as above, but hands each projected row (duplicates included) to
  // `rows` on the calling thread, in the threads=1 row order. A non-OK
  // status stops the stream and is returned.
  std::function<Status(const Tuple&)> rows = nullptr;
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
// "anti_join", plus whatever the inspect hook adds) and a final
// "project" — or, streamed, one "join <predicate> [stream]"
// ("project [stream]" without a join) whose rows_out counts the rows
// pushed. Under env.ctx every operator polls and charges its
// output, and the evaluation returns the context's typed error as soon as
// it latches, discarding intermediates.
Result<Relation> EvaluateConjunctiveBindings(
    const ConjunctiveQuery& cq, const PredicateResolver& resolver,
    const std::vector<std::string>& output_columns,
    const CqEvalOptions& options = {}, const ExecEnv& env = {},
    std::size_t* peak_rows = nullptr);

}  // namespace qf

#endif  // QF_FLOCKS_CQ_EVAL_H_
