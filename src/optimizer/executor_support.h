// Glue between the plan executor and the cost-based optimizer: a
// StepOrderChooser that orders each step's joins with the Selinger DP of
// join_order.h. The caller hands it the base statistics, computed once per
// relation version (optimizer/stats.h; the shell keeps one refreshed
// instance per session); the chooser adds exact statistics only for the
// relations earlier steps materialized, so the ordering of later steps
// benefits from the true prefilter selectivities — the cheap half of the
// paper's §4.4 observation that sizes are best known once seen.
#ifndef QF_OPTIMIZER_EXECUTOR_SUPPORT_H_
#define QF_OPTIMIZER_EXECUTOR_SUPPORT_H_

#include "optimizer/cost_model.h"
#include "plan/executor.h"

namespace qf {

// Returns a chooser for ExecutePlan's options.order_chooser that orders by
// `base` (which must outlive it, and must describe the database and any
// extra predicates the plan reads) plus statistics computed per call for
// the step results it is handed (they are small).
StepOrderChooser CostBasedOrderChooser(const DatabaseStats& base,
                                       CostModelConfig config = {});

// Convenience wrapper: ExecutePlan with cost-based join ordering by
// `stats`, the statistics of `db`.
Result<Relation> ExecutePlanOptimized(const QueryPlan& plan,
                                      const QueryFlock& flock,
                                      const Database& db,
                                      const DatabaseStats& stats,
                                      const ExecEnv& env = {},
                                      PlanExecInfo* info = nullptr);

}  // namespace qf

#endif  // QF_OPTIMIZER_EXECUTOR_SUPPORT_H_
