// Quickstart: the market-basket flock of the paper's Fig. 2, end to end.
//
//   1. build a small basket database,
//   2. declare the flock (Datalog query + support filter),
//   3. evaluate it directly,
//   4. show the SQL a conventional DBMS would need (Fig. 1),
//   5. run the a-priori-style two-step plan and check it agrees.
//
// Run:  ./quickstart
#include <chrono>
#include <cstdio>
#include <string>

#include "flocks/eval.h"
#include "flocks/flock.h"
#include "flocks/sql_emit.h"
#include "plan/executor.h"
#include "optimizer/executor_support.h"
#include "plan/plan.h"
#include "workload/basket_gen.h"

namespace {

double MillisSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

int main() {
  // 1. Data: 5,000 Zipf-skewed baskets over 800 items.
  qf::BasketConfig config;
  config.n_baskets = 5000;
  config.n_items = 4000;
  config.avg_basket_size = 8;
  config.zipf_theta = 0.8;
  config.seed = 2026;
  qf::Database db;
  db.PutRelation(qf::GenerateBaskets(config));
  std::printf("baskets(BID, Item): %zu rows\n\n",
              db.Get("baskets").size());

  // 2. The flock: pairs of items appearing together in >= 20 baskets,
  //    reported in lexicographic order.
  auto flock = qf::MakeFlock(
      "answer(B) :- baskets(B,$1) AND baskets(B,$2) AND $1 < $2",
      qf::FilterCondition::MinSupport(20));
  if (!flock.ok()) {
    std::fprintf(stderr, "flock error: %s\n",
                 flock.status().ToString().c_str());
    return 1;
  }
  std::printf("%s\n", flock->ToString().c_str());

  // 3. Direct evaluation (no a-priori optimization).
  auto t0 = std::chrono::steady_clock::now();
  auto direct = qf::EvaluateFlock(*flock, db);
  double direct_ms = MillisSince(t0);
  if (!direct.ok()) {
    std::fprintf(stderr, "eval error: %s\n",
                 direct.status().ToString().c_str());
    return 1;
  }
  std::printf("direct evaluation: %zu frequent pairs in %.1f ms\n",
              direct->size(), direct_ms);
  qf::Relation preview = *direct;
  preview.SortRows();
  std::printf("%s\n", preview.ToString(5).c_str());

  // 4. The SQL a conventional system would run (the paper's Fig. 1 shape).
  auto sql = qf::EmitSql(*flock, db);
  std::printf("equivalent SQL:\n%s\n\n", sql->c_str());

  // 5. The generalized a-priori plan: prefilter both parameters by the
  //    frequent-item subqueries, then run the restricted join.
  auto ok1 = qf::MakeFilterStep(*flock, "ok1", {"1"},
                                std::vector<std::size_t>{0});
  auto ok2 = qf::MakeFilterStep(*flock, "ok2", {"2"},
                                std::vector<std::size_t>{1});
  auto plan = qf::PlanWithPrefilters(*flock, {*ok1, *ok2});
  std::printf("a-priori query plan:\n%s\n",
              plan->ToString(flock->filter).c_str());

  const qf::DatabaseStats stats = qf::DatabaseStats::Compute(db);
  t0 = std::chrono::steady_clock::now();
  qf::PlanExecInfo info;
  auto planned =
      qf::ExecutePlanOptimized(*plan, *flock, db, stats, {}, &info);
  double plan_ms = MillisSince(t0);
  if (!planned.ok()) {
    std::fprintf(stderr, "plan error: %s\n",
                 planned.status().ToString().c_str());
    return 1;
  }
  std::printf("plan execution: %zu pairs in %.1f ms (%.1fx vs direct)\n",
              planned->size(), plan_ms, direct_ms / plan_ms);
  for (const qf::StepExecInfo& step : info.steps) {
    std::printf("  step %-8s -> %6zu assignments (peak intermediate %zu "
                "rows)\n",
                step.step_name.c_str(), step.result_rows, step.peak_rows);
  }

  bool agree = direct->size() == planned->size();
  std::printf("\nplan result %s direct result (%zu vs %zu pairs)\n",
              agree ? "matches" : "DIFFERS FROM", planned->size(),
              direct->size());
  return agree ? 0 : 1;
}
