#include "optimizer/executor_support.h"

#include "optimizer/join_order.h"
#include "optimizer/stats.h"

namespace qf {

StepOrderChooser CostBasedOrderChooser(const DatabaseStats& base,
                                       CostModelConfig config) {
  return [&base, config](const UnionQuery& step_query,
                         const std::map<std::string, const Relation*>& steps)
             -> FlockEvalOptions {
    DatabaseStats stats = base;
    for (const auto& [name, rel] : steps) stats.Put(name, ComputeStats(*rel));
    CostModel model(std::move(stats), config);
    FlockEvalOptions options;
    for (const ConjunctiveQuery& cq : step_query.disjuncts) {
      CqEvalOptions cq_options;
      cq_options.join_order = ChooseJoinOrder(cq, model);
      options.per_disjunct.push_back(std::move(cq_options));
    }
    return options;
  };
}

Result<Relation> ExecutePlanOptimized(const QueryPlan& plan,
                                      const QueryFlock& flock,
                                      const Database& db,
                                      const DatabaseStats& stats,
                                      const ExecEnv& env, PlanExecInfo* info) {
  PlanExecOptions options;
  options.order_chooser = CostBasedOrderChooser(stats);
  return ExecutePlan(plan, flock, db, options, env, info);
}

}  // namespace qf
