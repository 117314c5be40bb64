// Glue between the plan executor and the cost-based optimizer: a
// StepOrderChooser that orders each step's joins with the Selinger DP of
// join_order.h, using exact statistics for the relations earlier steps
// materialized (the executor hands them over at run time, so the ordering
// of later steps benefits from the true prefilter selectivities — the
// cheap half of the paper's §4.4 observation that sizes are best known
// once seen).
#ifndef QF_OPTIMIZER_EXECUTOR_SUPPORT_H_
#define QF_OPTIMIZER_EXECUTOR_SUPPORT_H_

#include "optimizer/cost_model.h"
#include "plan/executor.h"

namespace qf {

// Returns a chooser for ExecutePlan's options.order_chooser. Base-relation
// statistics are computed once, lazily, on first use; statistics for
// materialized step relations are computed per call (they are small).
StepOrderChooser CostBasedOrderChooser(CostModelConfig config = {});

// Convenience wrapper: ExecutePlan with cost-based join ordering.
Result<Relation> ExecutePlanOptimized(const QueryPlan& plan,
                                      const QueryFlock& flock,
                                      const Database& db,
                                      const ExecEnv& env = {},
                                      PlanExecInfo* info = nullptr);

}  // namespace qf

#endif  // QF_OPTIMIZER_EXECUTOR_SUPPORT_H_
