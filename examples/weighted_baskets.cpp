// Weighted market baskets (the paper's Future Work, Fig. 10): a monotone
// SUM filter. Each basket has an importance weight; a pair of items
// qualifies when the total weight of the baskets containing both reaches
// the threshold. Demonstrates that the a-priori machinery extends beyond
// COUNT to any monotone filter: the singleton prefilter plan remains legal
// and sound.
//
// Run:  ./weighted_baskets
#include <chrono>
#include <cstdio>

#include "flocks/eval.h"
#include "plan/executor.h"
#include "optimizer/executor_support.h"
#include "plan/legality.h"
#include "workload/basket_gen.h"

namespace {

double MillisSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

int main() {
  qf::BasketConfig config;
  config.n_baskets = 6000;
  config.n_items = 900;
  config.avg_basket_size = 7;
  config.zipf_theta = 1.1;
  config.seed = 8;
  qf::Database db;
  db.PutRelation(qf::GenerateBaskets(config));
  db.PutRelation(qf::GenerateImportance(config, /*mean_weight=*/1.0));
  std::printf("baskets: %zu rows; importance: %zu rows\n\n",
              db.Get("baskets").size(), db.Get("importance").size());

  // Fig. 10's flock, with the lexicographic-order refinement.
  auto flock = qf::MakeFlock(
      "answer(B,W) :- baskets(B,$1) AND baskets(B,$2) AND importance(B,W) "
      "AND $1 < $2",
      qf::FilterCondition{qf::FilterAgg::kSum, qf::CompareOp::kGe,
                          /*threshold=*/40, /*agg_head_index=*/1});
  if (!flock.ok()) {
    std::fprintf(stderr, "%s\n", flock.status().ToString().c_str());
    return 1;
  }
  std::printf("%s\n", flock->ToString().c_str());

  auto t0 = std::chrono::steady_clock::now();
  auto direct = qf::EvaluateFlock(*flock, db);
  double direct_ms = MillisSince(t0);
  if (!direct.ok()) {
    std::fprintf(stderr, "%s\n", direct.status().ToString().c_str());
    return 1;
  }
  std::printf("direct evaluation: %zu heavy pairs in %.1f ms\n",
              direct->size(), direct_ms);

  // Monotone prefilter: an item can only participate in a heavy pair if
  // its own weighted support reaches the threshold (SUM is monotone over
  // non-negative weights, so deleting the second baskets subgoal gives a
  // sound upper bound — exactly the a-priori argument with SUM for COUNT).
  auto ok1 = qf::MakeFilterStep(*flock, "ok1", {"1"},
                                std::vector<std::size_t>{0, 2});
  auto ok2 = qf::MakeFilterStep(*flock, "ok2", {"2"},
                                std::vector<std::size_t>{1, 2});
  if (!ok1.ok() || !ok2.ok()) {
    std::fprintf(stderr, "step error: %s %s\n",
                 ok1.status().ToString().c_str(),
                 ok2.status().ToString().c_str());
    return 1;
  }
  auto plan = qf::PlanWithPrefilters(*flock, {*ok1, *ok2});
  qf::Status legal = qf::CheckLegal(*plan, *flock);
  std::printf("\nmonotone-SUM prefilter plan (legal: %s):\n%s\n",
              legal.ok() ? "yes" : legal.ToString().c_str(),
              plan->ToString(flock->filter).c_str());

  const qf::DatabaseStats stats = qf::DatabaseStats::Compute(db);
  t0 = std::chrono::steady_clock::now();
  qf::PlanExecInfo info;
  auto planned =
      qf::ExecutePlanOptimized(*plan, *flock, db, stats, {}, &info);
  double plan_ms = MillisSince(t0);
  if (!planned.ok()) {
    std::fprintf(stderr, "%s\n", planned.status().ToString().c_str());
    return 1;
  }
  std::printf("plan execution: %zu pairs in %.1f ms (%.1fx vs direct)\n",
              planned->size(), plan_ms, direct_ms / plan_ms);
  for (const qf::StepExecInfo& step : info.steps) {
    std::printf("  %-6s %6zu survivors, peak %8zu rows\n",
                step.step_name.c_str(), step.result_rows, step.peak_rows);
  }

  bool agree = planned->size() == direct->size();
  std::printf("\nplan result %s direct result\n",
              agree ? "matches" : "DIFFERS FROM");
  qf::Relation preview = *direct;
  preview.SortRows();
  std::printf("\nsample heavy pairs:\n%s", preview.ToString(5).c_str());
  return agree ? 0 : 1;
}
