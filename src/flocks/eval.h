// The direct (group-by) evaluator for query flocks.
//
// The semantics of a flock (§2) is generate-and-test: for every parameter
// assignment, evaluate the query and test the filter. This evaluator
// computes the same set without enumeration: it evaluates the query with
// both parameter columns and head columns, groups by the parameters, and
// filters groups by the aggregate. For monotone filters the two coincide
// (assignments with empty answers fail monotone lower-bound filters, and
// they are exactly the assignments grouping never sees).
//
// This evaluator applies *no* a-priori optimization; it is the stand-in
// for the "conventional optimizer" baseline of §1.3, and the building
// block the plan executor uses for each FILTER step.
#ifndef QF_FLOCKS_EVAL_H_
#define QF_FLOCKS_EVAL_H_

#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "flocks/cq_eval.h"
#include "flocks/flock.h"
#include "relational/ops.h"

namespace qf {

struct FlockEvalOptions {
  // Per-disjunct fold options: the join order (empty: text order) and
  // DYNAMIC's inspect hook. A missing entry means text order, no hook;
  // the evaluator sets the sinks itself.
  std::vector<CqEvalOptions> per_disjunct;
  // Verify SUM filters only see non-negative weights (the monotonicity
  // precondition of the Future Work section).
  bool require_nonnegative_sum = true;
};

struct FlockEvalInfo {
  // Peak intermediate relation size over all disjuncts.
  std::size_t peak_rows = 0;
  // Rows of the (unioned, deduplicated) answer relation before grouping.
  std::size_t answer_rows = 0;
};

// Evaluates `flock` over `db` (plus `extra` predicate overlays, used by
// plan steps). The result's columns are the flock's parameters, "$"-tagged,
// in sorted order, and its rows are canonically (lexicographically)
// sorted — deterministic for every env.threads value. Requires a
// monotone filter; non-monotone filters need the naive evaluator
// (flocks/naive_eval.h), which can see empty answers.
//
// One pipeline, two sinks: the disjuncts run in order, each streaming its
// final join (filtered, projected) into one GroupTable (relational/ops.h)
// whose distinct set unions them; with a spill grant, a single-disjunct
// flock's final join streams into a SpillGroupSink instead when the
// governor's activation rule fires (DESIGN.md §14). Only the groups that
// pass the filter become rows.
//
// `env`: with more than one thread, scans, joins, the streamed final
// join and the group table's drain run morsel-parallel on the shared pool
// (common/thread_pool.h); results, float SUMs included, are identical for
// every thread count. env.metrics receives one "disjunct" child per
// disjunct, then "union" (unions only), "group_by" and "filter" nodes;
// row counters are identical for every thread count. env.ctx governs
// every phase.
Result<Relation> EvaluateFlock(
    const QueryFlock& flock, const Database& db,
    const FlockEvalOptions& options = {}, const ExecEnv& env = {},
    const std::map<std::string, const Relation*>* extra = nullptr,
    FlockEvalInfo* info = nullptr);

// Sorted "$"-tagged parameter columns of `flock` — the schema of its
// result.
std::vector<std::string> FlockParameterColumns(const QueryFlock& flock);

// The group-by aggregate that computes a filter's `agg`.
AggKind FilterAggKind(FilterAgg agg);

// The SUM filter's monotonicity precondition (Future Work): a
// FAILED_PRECONDITION error for a negative or non-numeric weight.
Status CheckSumWeight(const Value& weight);

}  // namespace qf

#endif  // QF_FLOCKS_EVAL_H_
