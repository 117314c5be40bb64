// Cardinality and cost estimation for extended conjunctive queries, in the
// System-R tradition ([G*79], which the paper cites as the machinery to
// reuse): uniformity and independence assumptions, per-column distinct
// counts as the primitive statistic.
//
// Estimates drive three decisions:
//   * join ordering (optimizer/join_order.h),
//   * which FILTER steps to include in a static plan
//     (optimizer/plan_search.h),
//   * nothing in the dynamic strategy (§4.4), which instead reacts to
//     *observed* intermediate sizes — that contrast is the point of the
//     paper's §4.4 and of bench_fig9_dynamic.
#ifndef QF_OPTIMIZER_COST_MODEL_H_
#define QF_OPTIMIZER_COST_MODEL_H_

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "datalog/ast.h"
#include "optimizer/stats.h"

namespace qf {

// Tunable selectivities for subgoals the distinct-count model cannot see
// through.
struct CostModelConfig {
  double inequality_selectivity = 0.5;   // X < Y, X <= Y, ...
  double not_equal_selectivity = 0.98;   // X != Y
  double negation_selectivity = 0.7;     // NOT p(...)
  // Distinct count assumed for columns of unknown relations.
  double default_distinct = 1000;
  double default_rows = 10000;
};

class CostModel {
 public:
  explicit CostModel(DatabaseStats stats, CostModelConfig config = {})
      : stats_(std::move(stats)), config_(config) {}

  const CostModelConfig& config() const { return config_; }
  const DatabaseStats& stats() const { return stats_; }

  // Estimated rows of the binding relation of one relational subgoal
  // (constants and repeated terms reduce the base cardinality).
  double EstimateSubgoalRows(const Subgoal& subgoal) const;

  // Estimated distinct values of `column` (TermColumn naming, "X" or "$p")
  // across the query: the minimum distinct count over the positions where
  // the column occurs in positive subgoals.
  double EstimateColumnDistinct(const ConjunctiveQuery& cq,
                                const std::string& column) const;

  struct CqEstimate {
    double result_rows = 0;   // bindings after all subgoals
    double cost = 0;          // sum of intermediate join sizes (work proxy)
  };

  // Estimates evaluating `cq`'s body with positive subgoals joined in
  // `order` (empty = text order). Comparison/negation selectivities are
  // applied at the first point all their columns are bound.
  CqEstimate EstimateCq(const ConjunctiveQuery& cq,
                        const std::vector<std::size_t>& order = {}) const;

  // Estimated number of parameter assignments of `cq` surviving a support
  // filter COUNT >= threshold, and the estimated survival fraction.
  //
  // Model: distinct assignments D = prod over params of distinct counts;
  // average answers per assignment g = result_rows / D; group sizes are
  // taken as exponential with mean g, so the survival fraction is
  // exp(-(threshold-1)/g). Crude, but smooth and monotone in the right
  // directions, which is all plan *ranking* needs.
  struct FilterEstimate {
    double assignments = 0;
    double survivors = 0;
    double survival_fraction = 1.0;
  };
  FilterEstimate EstimateFilter(const ConjunctiveQuery& cq,
                                double threshold) const;

 private:
  DatabaseStats stats_;
  CostModelConfig config_;
};

}  // namespace qf

#endif  // QF_OPTIMIZER_COST_MODEL_H_
