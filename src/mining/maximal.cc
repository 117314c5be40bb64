#include "mining/maximal.h"

#include <map>
#include <set>
#include <unordered_set>

#include "flocks/eval.h"
#include "optimizer/executor_support.h"
#include "optimizer/itemset_plans.h"
#include "plan/executor.h"

namespace qf {

Result<MaximalItemsetsResult> MaximalFrequentItemsets(
    const Database& db, const DatabaseStats& stats,
    const std::string& relation, const MaximalItemsetsOptions& options,
    const ExecEnv& env) {
  if (!db.Has(relation)) {
    return NotFoundError("unknown relation: " + relation);
  }
  if (db.Get(relation).arity() != 2) {
    return InvalidArgumentError(
        "itemset mining needs a binary (basket, item) relation");
  }

  MaximalItemsetsResult result;
  // Frequent itemsets per level, still candidates for being maximal.
  std::vector<std::unordered_set<Tuple, TupleHash>> candidates;

  // Level 1: the frequent-items flock.
  Result<QueryFlock> flock1 =
      MakeFlock("answer(B) :- " + relation + "(B,$1)",
                FilterCondition::MinSupport(options.min_support));
  if (!flock1.ok()) return flock1.status();
  Result<Relation> freq = EvaluateFlock(*flock1, db, {}, env);
  if (!freq.ok()) return freq.status();
  result.levels = 1;
  result.frequent_per_level.push_back(freq->size());
  candidates.emplace_back(freq->rows().begin(), freq->rows().end());

  Relation previous = std::move(*freq);  // columns $1..$k-1, ascending
  // One chooser for every level: it orders by `stats` plus the statistics
  // of the level's step results.
  PlanExecOptions exec_options;
  exec_options.order_chooser = CostBasedOrderChooser(stats);
  std::size_t k = 2;
  while (!previous.empty() &&
         (options.max_size == 0 || k <= options.max_size)) {
    Result<QueryFlock> flock =
        MakeItemsetFlock(relation, k, options.min_support);
    if (!flock.ok()) return flock.status();
    Result<QueryPlan> plan = ItemsetAprioriPlan(*flock, k, k - 1);
    if (!plan.ok()) return plan.status();

    // Each (k-1)-subset prefilter step's answer *is* the previous level's
    // flock answer (same ascending-tuple content; references bind
    // positionally), so hand it over instead of re-evaluating.
    std::map<std::string, const Relation*> precomputed;
    for (std::size_t i = 0; i + 1 < plan->steps.size(); ++i) {
      precomputed[plan->steps[i].result_name] = &previous;
    }
    exec_options.precomputed_steps = &precomputed;
    Result<Relation> level = ExecutePlan(*plan, *flock, db, exec_options, env);
    if (!level.ok()) return level.status();

    result.levels = k;
    result.frequent_per_level.push_back(level->size());
    if (level->empty()) break;

    // A frequent k-set disqualifies each of its (k-1)-subsets.
    candidates.emplace_back(level->rows().begin(), level->rows().end());
    for (const Tuple& t : level->rows()) {
      for (std::size_t drop = 0; drop < t.size(); ++drop) {
        Tuple subset;
        subset.reserve(t.size() - 1);
        for (std::size_t i = 0; i < t.size(); ++i) {
          if (i != drop) subset.push_back(t[i]);
        }
        candidates[k - 2].erase(subset);
      }
    }
    previous = std::move(*level);
    ++k;
  }

  for (const auto& level : candidates) {
    for (const Tuple& t : level) result.maximal.push_back(t);
  }
  std::sort(result.maximal.begin(), result.maximal.end(),
            [](const Tuple& a, const Tuple& b) {
              return a.size() != b.size() ? a.size() < b.size() : a < b;
            });
  return result;
}

}  // namespace qf
