// Dynamic selection of filter steps (paper §4.4) — the strategy "that has
// no analog in conventional query optimization": fix a join order in
// advance, but decide whether to apply a FILTER step only after seeing the
// sizes of intermediate relations.
//
// The decision rule, per the paper:
//   * when a relation's parameter set has not been filtered before,
//     compare its tuples-per-parameter-assignment ratio with the support
//     threshold — a low ratio means many assignments are about to fall
//     below support, so filtering pays;
//   * when the set has been seen, filter again only if the ratio dropped
//     significantly since the last filtering opportunity.
//
// The pruning counts are sound upper bounds on the final answer count: the
// prefix of a join order is a subquery containing the original (§3.1), and
// counting distinct rows (or distinct head-variable bindings once bound)
// per assignment over-approximates the eventual COUNT(answer).
#ifndef QF_OPTIMIZER_DYNAMIC_H_
#define QF_OPTIMIZER_DYNAMIC_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/exec_env.h"
#include "common/status.h"
#include "flocks/flock.h"
#include "relational/database.h"

namespace qf {

struct DynamicOptions {
  // Join order over the positive subgoals; empty = text order (callers
  // typically pass ChooseJoinOrder's output).
  std::vector<std::size_t> join_order;
  // Consider filtering a never-before-filtered parameter set when
  //   tuples / assignments < aggressiveness * threshold.
  double aggressiveness = 1.0;
  // Re-consider an already-filtered parameter set when its ratio has
  // dropped below improvement_factor * (previous ratio).
  double improvement_factor = 0.5;
  // Once the ratio test passes, the group counts are computed (the cheap
  // half of the filter); the semi-join is applied only if at least this
  // fraction of tuples would be removed. This is the "actual distribution
  // of the sizes of the groups affects our expected reduction" caveat of
  // §4.4 made operational: a mean ratio below threshold does not help if
  // the mass sits in a few huge groups.
  double min_removed_fraction = 0.2;
};

struct DynamicDecision {
  // What triggered the decision, e.g. "leaf exhibits(P,$s)" or
  // "after join 2".
  std::string at;
  std::set<std::string> parameters;  // "$"-tagged columns
  double ratio = 0;                  // tuples per parameter assignment
  // The §4.4 two-stage outcome: `considered` is the ratio gate (unseen:
  // ratio < aggressiveness * threshold; seen: ratio dropped below
  // improvement_factor * baseline); `filtered` additionally requires the
  // removed-mass check. `removed_fraction` is the tuple mass the filter
  // would remove, computed only when considered.
  bool considered = false;
  bool filtered = false;
  double removed_fraction = 0;
  std::size_t rows_before = 0;
  std::size_t rows_after = 0;
  // Wall time spent at this decision point (the group-count pass plus the
  // semi-join when applied). Rendered by EXPLAIN ANALYZE DYNAMIC.
  std::uint64_t wall_ns = 0;
};

struct DynamicLog {
  std::vector<DynamicDecision> decisions;
  std::size_t peak_rows = 0;
  std::size_t filters_applied = 0;
};

// Evaluates `flock` with dynamic filter selection. Requires a
// single-disjunct query (per-disjunct pruning of a union against the full
// threshold would be unsound — §3.4 demands unions of subqueries) and a
// support-style filter. The result equals EvaluateFlock(flock, db).
//
// The evaluation is EvaluateFlock's with one per-disjunct option: an
// inspect hook (flocks/cq_eval.h) that makes the FILTER decision at every
// node of the fold. Predicates resolve as there, `extra` (program views)
// first. `env` is EvaluateFlock's: results and decisions are identical
// for every env.threads value. env.metrics receives the "disjunct"
// subtree — "scan", "dyn_filter" (one per decision point, with
// "group_by"/"semi_join" children when those ran), "join", "select",
// "anti_join" and "project [stream]" — then "group_by" and "filter".
Result<Relation> DynamicEvaluate(
    const QueryFlock& flock, const Database& db,
    const DynamicOptions& options = {}, const ExecEnv& env = {},
    DynamicLog* log = nullptr,
    const std::map<std::string, const Relation*>* extra = nullptr);

// Renders the decisions of a dynamic run in the spirit of the paper's
// Fig. 9 ("a possible query plan resulting from dynamic evaluation"):
// one line per decision point, showing the parameter set, the observed
// tuples-per-assignment ratio, and whether a FILTER step was applied.
std::string RenderDynamicTrace(const DynamicLog& log);

}  // namespace qf

#endif  // QF_OPTIMIZER_DYNAMIC_H_
