#include "optimizer/executor_support.h"

#include <memory>

#include "optimizer/join_order.h"
#include "optimizer/stats.h"

namespace qf {

StepOrderChooser CostBasedOrderChooser(CostModelConfig config) {
  // Base statistics cached across steps; shared_ptr keeps the chooser
  // copyable as std::function requires.
  auto cache = std::make_shared<std::optional<DatabaseStats>>();
  return [cache, config](const UnionQuery& step_query, const Database& db,
                         const std::map<std::string, const Relation*>& extra)
             -> FlockEvalOptions {
    if (!cache->has_value()) *cache = DatabaseStats::Compute(db);
    DatabaseStats stats = **cache;
    for (const auto& [name, rel] : extra) {
      stats.Put(name, ComputeStats(*rel));
    }
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
                                      const ExecEnv& env, PlanExecInfo* info) {
  PlanExecOptions options;
  options.order_chooser = CostBasedOrderChooser();
  return ExecutePlan(plan, flock, db, options, env, info);
}

}  // namespace qf
