// Differential tests for governed evaluation: with a sufficient budget a
// governed run is bit-identical to the ungoverned run at every thread
// count; with a tripped limit it fails with the typed Status and the
// engine unwinds cleanly (no leaks, no corruption — the sanitizer CI jobs
// run these suites). Fault injection sweeps the abort point across every
// Charge() call to prove each unwind path is sound.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "apriori/apriori.h"
#include "common/resource.h"
#include "flocks/eval.h"
#include "flocks/flock.h"
#include "optimizer/dynamic.h"
#include "optimizer/plan_search.h"
#include "plan/executor.h"
#include "plan/plan.h"
#include "workload/basket_gen.h"

namespace qf {
namespace {

constexpr unsigned kThreadCounts[] = {0, 1, 4};

QueryFlock Flock(const char* text, FilterCondition filter) {
  auto f = MakeFlock(text, filter);
  EXPECT_TRUE(f.ok()) << f.status().ToString();
  return *f;
}

// Exact comparison — schema, rows, AND row order. Governance only decides
// abort-or-not, never reorders work, so a governed run that completes must
// be byte-identical to the ungoverned run.
void ExpectIdentical(const Relation& ungoverned, const Relation& governed,
                     unsigned threads) {
  ASSERT_EQ(ungoverned.schema(), governed.schema()) << "threads=" << threads;
  ASSERT_EQ(ungoverned.rows(), governed.rows()) << "threads=" << threads;
}

Database RandomBaskets(std::uint64_t seed, std::uint32_t n_baskets = 400,
                       std::uint32_t n_items = 50) {
  BasketConfig config;
  config.n_baskets = n_baskets;
  config.n_items = n_items;
  config.avg_basket_size = 6;
  config.zipf_theta = 0.9;
  config.seed = seed;
  Database db;
  db.PutRelation(GenerateBaskets(config));
  return db;
}

QueryFlock PairFlock() {
  return Flock("answer(B) :- baskets(B,$1) AND baskets(B,$2) AND $1 < $2",
               FilterCondition::MinSupport(6));
}

// No underflow: a Release() larger than outstanding charges would wrap the
// unsigned accountant to ~2^64 and spuriously trip every later budget
// check. Anything above 2^62 after a run means exactly that bug.
void ExpectNoUnderflow(const QueryContext& ctx) {
  EXPECT_LT(ctx.used_bytes(), 1ull << 62);
  EXPECT_GE(ctx.peak_bytes(), ctx.used_bytes());
}

void ExpectSameItemsets(const std::vector<Itemset>& a,
                        const std::vector<Itemset>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].items, b[i].items);
    EXPECT_EQ(a[i].support, b[i].support);
  }
}

TEST(GovernedEvalTest, FlockWithSufficientBudgetIsIdentical) {
  Database db = RandomBaskets(11);
  QueryFlock flock = PairFlock();
  Result<Relation> baseline = EvaluateFlock(flock, db);
  ASSERT_TRUE(baseline.ok());
  for (unsigned threads : kThreadCounts) {
    QueryContext ctx;
    ctx.set_memory_budget(1ull << 30);
    ctx.set_timeout_ms(60'000);
    Result<Relation> governed = EvaluateFlock(
        flock, db, {}, {.threads = threads, .ctx = &ctx});
    ASSERT_TRUE(governed.ok()) << governed.status().ToString();
    ExpectIdentical(*baseline, *governed, threads);
    EXPECT_TRUE(ctx.Check().ok());
    EXPECT_GT(ctx.peak_bytes(), 0u);
    ExpectNoUnderflow(ctx);
  }
}

TEST(GovernedEvalTest, ExpiredDeadlineFailsTyped) {
  Database db = RandomBaskets(12);
  QueryFlock flock = PairFlock();
  for (unsigned threads : kThreadCounts) {
    QueryContext ctx;
    ctx.set_deadline(std::chrono::steady_clock::now() -
                     std::chrono::milliseconds(1));
    Result<Relation> governed = EvaluateFlock(
        flock, db, {}, {.threads = threads, .ctx = &ctx});
    ASSERT_FALSE(governed.ok()) << "threads=" << threads;
    EXPECT_EQ(governed.status().code(), StatusCode::kDeadlineExceeded);
    ExpectNoUnderflow(ctx);
  }
}

TEST(GovernedEvalTest, TinyBudgetFailsTyped) {
  Database db = RandomBaskets(13);
  QueryFlock flock = PairFlock();
  for (unsigned threads : kThreadCounts) {
    QueryContext ctx;
    ctx.set_memory_budget(4096);  // far below any real intermediate
    Result<Relation> governed = EvaluateFlock(
        flock, db, {}, {.threads = threads, .ctx = &ctx});
    ASSERT_FALSE(governed.ok()) << "threads=" << threads;
    EXPECT_EQ(governed.status().code(), StatusCode::kResourceExhausted);
    ExpectNoUnderflow(ctx);
  }
}

TEST(GovernedEvalTest, PreSetCancelFlagFailsCancelled) {
  Database db = RandomBaskets(14);
  QueryFlock flock = PairFlock();
  std::atomic<bool> flag{true};
  QueryContext ctx;
  ctx.set_cancel_flag(&flag);
  Result<Relation> governed = EvaluateFlock(flock, db, {}, {.ctx = &ctx});
  ASSERT_FALSE(governed.ok());
  EXPECT_EQ(governed.status().code(), StatusCode::kCancelled);
}

// The central differential property: for every fault-injection point n and
// every thread count, the run either fails with the typed governor error
// or completes bit-identical to the ungoverned baseline. (Charge counts
// differ across thread counts — serial fallbacks batch differently — so
// "trips at n" is not required to agree between configurations.)
TEST(GovernedEvalTest, FaultInjectionSweepFlock) {
  Database db = RandomBaskets(15, 200, 30);
  QueryFlock flock = PairFlock();
  Result<Relation> baseline = EvaluateFlock(flock, db);
  ASSERT_TRUE(baseline.ok());
  for (unsigned threads : kThreadCounts) {
    bool saw_trip = false;
    for (std::uint64_t n = 1; n <= 24; ++n) {
      QueryContext ctx;
      ctx.set_fail_after_charges(n);
      Result<Relation> governed = EvaluateFlock(
          flock, db, {}, {.threads = threads, .ctx = &ctx});
      if (governed.ok()) {
        ExpectIdentical(*baseline, *governed, threads);
      } else {
        saw_trip = true;
        EXPECT_EQ(governed.status().code(), StatusCode::kResourceExhausted)
            << "threads=" << threads << " n=" << n;
      }
      ExpectNoUnderflow(ctx);
    }
    EXPECT_TRUE(saw_trip) << "threads=" << threads
                          << ": no injection point tripped — the sweep "
                             "exercised nothing";
  }
}

TEST(GovernedEvalTest, PlanExecutorGovernedMatchesAndTrips) {
  Database db = RandomBaskets(16);
  QueryFlock flock = PairFlock();
  DatabaseStats stats = DatabaseStats::Compute(db);
  CostModel model(std::move(stats));
  Result<QueryPlan> plan = SearchPlanParameterSets(flock, model);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();

  Result<Relation> baseline = ExecutePlan(*plan, flock, db);
  ASSERT_TRUE(baseline.ok());
  for (unsigned threads : kThreadCounts) {
    {
      QueryContext ctx;
      ctx.set_memory_budget(1ull << 30);
      Result<Relation> governed = ExecutePlan(
          *plan, flock, db, {}, {.threads = threads, .ctx = &ctx});
      ASSERT_TRUE(governed.ok()) << governed.status().ToString();
      ExpectIdentical(*baseline, *governed, threads);
      ExpectNoUnderflow(ctx);
    }
    {
      QueryContext ctx;
      ctx.set_memory_budget(2048);
      Result<Relation> governed = ExecutePlan(
          *plan, flock, db, {}, {.threads = threads, .ctx = &ctx});
      ASSERT_FALSE(governed.ok()) << "threads=" << threads;
      EXPECT_EQ(governed.status().code(), StatusCode::kResourceExhausted);
      ExpectNoUnderflow(ctx);
    }
  }
}

TEST(GovernedEvalTest, FaultInjectionSweepPlanExecutor) {
  Database db = RandomBaskets(17, 200, 30);
  QueryFlock flock = PairFlock();
  Result<QueryPlan> plan =
      SearchPlanParameterSets(flock, CostModel(DatabaseStats::Compute(db)));
  ASSERT_TRUE(plan.ok());
  Result<Relation> baseline = ExecutePlan(*plan, flock, db);
  ASSERT_TRUE(baseline.ok());
  for (unsigned threads : kThreadCounts) {
    for (std::uint64_t n = 1; n <= 16; ++n) {
      QueryContext ctx;
      ctx.set_fail_after_charges(n);
      Result<Relation> governed = ExecutePlan(
          *plan, flock, db, {}, {.threads = threads, .ctx = &ctx});
      if (governed.ok()) {
        ExpectIdentical(*baseline, *governed, threads);
      } else {
        EXPECT_EQ(governed.status().code(), StatusCode::kResourceExhausted);
      }
      ExpectNoUnderflow(ctx);
    }
  }
}

TEST(GovernedEvalTest, DynamicEvaluateGovernedMatchesAndTrips) {
  Database db = RandomBaskets(18);
  QueryFlock flock = PairFlock();
  Result<Relation> baseline = DynamicEvaluate(flock, db);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  {
    QueryContext ctx;
    ctx.set_memory_budget(1ull << 30);
    Result<Relation> governed = DynamicEvaluate(flock, db, {}, {.ctx = &ctx});
    ASSERT_TRUE(governed.ok()) << governed.status().ToString();
    ExpectIdentical(*baseline, *governed, 1);
    ExpectNoUnderflow(ctx);
  }
  {
    QueryContext ctx;
    ctx.set_memory_budget(2048);
    Result<Relation> governed = DynamicEvaluate(flock, db, {}, {.ctx = &ctx});
    ASSERT_FALSE(governed.ok());
    EXPECT_EQ(governed.status().code(), StatusCode::kResourceExhausted);
    ExpectNoUnderflow(ctx);
  }
  for (std::uint64_t n = 1; n <= 16; ++n) {
    QueryContext ctx;
    ctx.set_fail_after_charges(n);
    Result<Relation> governed = DynamicEvaluate(flock, db, {}, {.ctx = &ctx});
    if (governed.ok()) {
      ExpectIdentical(*baseline, *governed, 1);
    } else {
      EXPECT_EQ(governed.status().code(), StatusCode::kResourceExhausted);
    }
    ExpectNoUnderflow(ctx);
  }
}

// The a-priori miners return plain vectors; the governed contract is that
// a tripped context stops the level-wise loop early and the caller
// detects it via ctx->Check().
TEST(GovernedEvalTest, AprioriHonoursContext) {
  BasketConfig config;
  config.n_baskets = 2000;
  config.n_items = 60;
  config.avg_basket_size = 8;
  config.seed = 21;
  Result<BasketData> parsed =
      BasketsFromRelation(GenerateBaskets(config), "BID", "Item");
  ASSERT_TRUE(parsed.ok());
  BasketData data = std::move(*parsed);

  AprioriOptions ungoverned;
  ungoverned.min_support = 10;
  std::vector<Itemset> baseline = AprioriFrequentItemsets(data, ungoverned);
  ASSERT_FALSE(baseline.empty());

  for (unsigned threads : kThreadCounts) {
    AprioriOptions options;
    options.min_support = 10;
    const unsigned workers = threads == 0 ? 1 : threads;
    QueryContext ctx;
    ctx.set_memory_budget(1ull << 30);
    std::vector<Itemset> governed = AprioriFrequentItemsets(
        data, options, {.threads = workers, .ctx = &ctx});
    ASSERT_TRUE(ctx.Check().ok());
    ExpectSameItemsets(baseline, governed);

    QueryContext expired;
    expired.set_deadline(std::chrono::steady_clock::now() -
                         std::chrono::milliseconds(1));
    AprioriFrequentItemsets(data, options,
                            {.threads = workers, .ctx = &expired});
    EXPECT_EQ(expired.Check().code(), StatusCode::kDeadlineExceeded)
        << "threads=" << threads;
  }
}

TEST(GovernedEvalTest, AprioriPairsHonoursContext) {
  BasketConfig config;
  config.n_baskets = 400;
  config.n_items = 50;
  config.avg_basket_size = 7;
  config.seed = 22;
  Result<BasketData> parsed =
      BasketsFromRelation(GenerateBaskets(config), "BID", "Item");
  ASSERT_TRUE(parsed.ok());
  BasketData data = std::move(*parsed);
  std::vector<Itemset> baseline = AprioriFrequentPairs(data, 8);

  for (unsigned threads : {1u, 4u}) {
    QueryContext ctx;
    ctx.set_memory_budget(1ull << 30);
    std::vector<Itemset> governed =
        AprioriFrequentPairs(data, 8, {.threads = threads, .ctx = &ctx});
    ASSERT_TRUE(ctx.Check().ok());
    ExpectSameItemsets(baseline, governed);

    QueryContext tripped;
    tripped.set_fail_after_charges(1);
    AprioriFrequentPairs(data, 8, {.threads = threads, .ctx = &tripped});
    EXPECT_EQ(tripped.Check().code(), StatusCode::kResourceExhausted)
        << "threads=" << threads;
  }
}

// Mid-flight cancellation from another thread: the run must return
// CANCELLED (or complete identically if it won the race) and leave the
// context without accounting corruption at every thread count.
TEST(GovernedEvalTest, ConcurrentCancelUnwindsCleanly) {
  Database db = RandomBaskets(23, 800, 60);
  QueryFlock flock = PairFlock();
  Result<Relation> baseline = EvaluateFlock(flock, db);
  ASSERT_TRUE(baseline.ok());
  for (unsigned threads : kThreadCounts) {
    QueryContext ctx;
    std::atomic<bool> flag{false};
    ctx.set_cancel_flag(&flag);
    std::thread canceller([&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      flag.store(true);
    });
    Result<Relation> governed = EvaluateFlock(
        flock, db, {}, {.threads = threads, .ctx = &ctx});
    canceller.join();
    if (governed.ok()) {
      ExpectIdentical(*baseline, *governed, threads);
    } else {
      EXPECT_EQ(governed.status().code(), StatusCode::kCancelled);
    }
    ExpectNoUnderflow(ctx);
  }
}

}  // namespace
}  // namespace qf
