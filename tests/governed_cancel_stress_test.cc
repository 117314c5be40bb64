// Long-running cancellation stress: hammer a governed evaluation with
// cancellation requests landing at randomized points, at several thread
// counts, and check that every run either completes bit-identical to the
// baseline or fails CANCELLED — with the accountant intact either way.
// Labelled `slow`: tens of full evaluations; the short differential suite
// (governed_eval_test) covers the same paths for the sanitizer jobs.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "common/resource.h"
#include "common/rng.h"
#include "flocks/eval.h"
#include "flocks/flock.h"
#include "workload/basket_gen.h"

namespace qf {
namespace {

TEST(GovernedCancelStressTest, RandomizedCancelPointsUnwindCleanly) {
  BasketConfig config;
  config.n_baskets = 1500;
  config.n_items = 80;
  config.avg_basket_size = 8;
  config.zipf_theta = 0.9;
  config.seed = 99;
  Database db;
  db.PutRelation(GenerateBaskets(config));
  Result<QueryFlock> flock =
      MakeFlock("answer(B) :- baskets(B,$1) AND baskets(B,$2) AND $1 < $2",
                FilterCondition::MinSupport(8));
  ASSERT_TRUE(flock.ok());
  Result<Relation> baseline = EvaluateFlock(*flock, db);
  ASSERT_TRUE(baseline.ok());

  Rng rng(4242);
  int cancelled_runs = 0;
  for (int iter = 0; iter < 30; ++iter) {
    unsigned threads = static_cast<unsigned>(rng.NextBelow(5));  // 0..4
    // Delay spans "immediately" through "after the query finished".
    auto delay = std::chrono::microseconds(rng.NextBelow(20'000));
    QueryContext ctx;
    std::atomic<bool> flag{false};
    ctx.set_cancel_flag(&flag);
    std::thread canceller([&] {
      std::this_thread::sleep_for(delay);
      flag.store(true);
    });
    Result<Relation> governed =
        EvaluateFlock(*flock, db, {}, {.threads = threads, .ctx = &ctx});
    canceller.join();
    if (governed.ok()) {
      ASSERT_EQ(baseline->schema(), governed->schema()) << "iter=" << iter;
      ASSERT_EQ(baseline->rows(), governed->rows()) << "iter=" << iter;
    } else {
      ++cancelled_runs;
      EXPECT_EQ(governed.status().code(), StatusCode::kCancelled)
          << "iter=" << iter << " threads=" << threads;
    }
    EXPECT_LT(ctx.used_bytes(), 1ull << 62) << "accountant underflow";
  }
  // With delays up to 20 ms over a multi-ms query, some runs must have
  // been cut short; if none were, the stress exercised nothing.
  EXPECT_GT(cancelled_runs, 0);
}

TEST(GovernedCancelStressTest, ContextIsReusableForReruns) {
  // One context per statement is the intended pattern; this checks the
  // opposite misuse is at least fail-fast: a latched context refuses all
  // further work instead of corrupting it.
  BasketConfig config;
  config.n_baskets = 600;
  config.seed = 7;
  Database db;
  db.PutRelation(GenerateBaskets(config));
  Result<QueryFlock> flock = MakeFlock("answer(B) :- baskets(B,$1)",
                                       FilterCondition::MinSupport(3));
  ASSERT_TRUE(flock.ok());

  QueryContext ctx;
  ctx.RequestCancel();
  for (int i = 0; i < 3; ++i) {
    Result<Relation> r = EvaluateFlock(*flock, db, {}, {.ctx = &ctx});
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kCancelled);
  }
}

}  // namespace
}  // namespace qf
