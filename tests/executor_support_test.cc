// Tests for the cost-based order chooser, the string pool, and the
// look-then-decide refinements of the dynamic evaluator.
#include <gtest/gtest.h>

#include <thread>

#include "flocks/eval.h"
#include "optimizer/dynamic.h"
#include "optimizer/executor_support.h"
#include "plan/plan.h"
#include "relational/string_pool.h"
#include "workload/basket_gen.h"

namespace qf {
namespace {

QueryFlock Flock(const char* text, FilterCondition filter) {
  auto f = MakeFlock(text, filter);
  EXPECT_TRUE(f.ok()) << f.status().ToString();
  return *f;
}

Database SkewedBaskets(std::uint64_t seed = 61) {
  BasketConfig config;
  config.n_baskets = 600;
  config.n_items = 400;
  config.avg_basket_size = 6;
  config.zipf_theta = 0.6;
  config.seed = seed;
  Database db;
  db.PutRelation(GenerateBaskets(config));
  return db;
}

TEST(StringPoolTest, InterningCanonicalizes) {
  StringPool& pool = StringPool::Instance();
  const std::string* a = pool.Intern("qf_pool_test_alpha");
  const std::string* b = pool.Intern("qf_pool_test_alpha");
  const std::string* c = pool.Intern("qf_pool_test_beta");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(*a, "qf_pool_test_alpha");
}

TEST(StringPoolTest, ValueEqualityUsesInterning) {
  Value a("qf_pool_test_value");
  Value b(std::string("qf_pool_test_value"));
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.Hash(), b.Hash());
  EXPECT_EQ(&a.AsString(), &b.AsString());
}

TEST(StringPoolTest, ConcurrentInterningIsSafe) {
  // Many threads interning overlapping string sets must agree on the
  // canonical pointers (exercises the pool's locking).
  constexpr int kThreads = 8;
  constexpr int kStrings = 200;
  std::vector<std::vector<const std::string*>> seen(kThreads);
  std::vector<std::thread> workers;
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([w, &seen] {
      seen[w].reserve(kStrings);
      for (int i = 0; i < kStrings; ++i) {
        seen[w].push_back(StringPool::Instance().Intern(
            "qf_concurrent_" + std::to_string(i)));
      }
    });
  }
  for (std::thread& t : workers) t.join();
  for (int w = 1; w < kThreads; ++w) {
    EXPECT_EQ(seen[w], seen[0]);
  }
}

TEST(ExecutorSupportTest, OptimizedPlanAvoidsCrossProducts) {
  Database db = SkewedBaskets();
  QueryFlock flock =
      Flock("answer(B) :- baskets(B,$1) AND baskets(B,$2) AND $1 < $2",
            FilterCondition::MinSupport(4));
  auto ok1 = MakeFilterStep(flock, "ok1", {"1"}, std::vector<std::size_t>{0});
  auto ok2 = MakeFilterStep(flock, "ok2", {"2"}, std::vector<std::size_t>{1});
  ASSERT_TRUE(ok1.ok());
  ASSERT_TRUE(ok2.ok());
  auto plan = PlanWithPrefilters(flock, {*ok1, *ok2});
  ASSERT_TRUE(plan.ok());

  // Text order joins ok1 with ok2 first — a cross product of the two
  // survivor sets; cost-based ordering must do much better.
  PlanExecInfo text_info;
  auto text_result = ExecutePlan(*plan, flock, db, {}, {}, &text_info);
  ASSERT_TRUE(text_result.ok());
  PlanExecInfo opt_info;
  auto opt_result = ExecutePlanOptimized(
      *plan, flock, db, DatabaseStats::Compute(db), {}, &opt_info);
  ASSERT_TRUE(opt_result.ok());

  text_result->SortRows();
  opt_result->SortRows();
  EXPECT_EQ(text_result->rows(), opt_result->rows());
  EXPECT_LT(opt_info.total_peak_rows, text_info.total_peak_rows);
}

TEST(ExecutorSupportTest, ChooserSeesMaterializedStepSizes) {
  // The chooser is fed the actual prefilter outputs; it must produce valid
  // per-disjunct options (exercised end to end by the agreement check).
  Database db = SkewedBaskets(62);
  QueryFlock flock =
      Flock("answer(B) :- baskets(B,$1) AND baskets(B,$2) AND $1 < $2",
            FilterCondition::MinSupport(3));
  auto ok1 = MakeFilterStep(flock, "ok1", {"1"}, std::vector<std::size_t>{0});
  ASSERT_TRUE(ok1.ok());
  auto plan = PlanWithPrefilters(flock, {*ok1});
  ASSERT_TRUE(plan.ok());
  auto direct = EvaluateFlock(flock, db);
  auto optimized =
      ExecutePlanOptimized(*plan, flock, db, DatabaseStats::Compute(db));
  ASSERT_TRUE(direct.ok());
  ASSERT_TRUE(optimized.ok());
  direct->SortRows();
  optimized->SortRows();
  EXPECT_EQ(direct->rows(), optimized->rows());
}

TEST(DynamicOptionsTest, MinRemovedFractionOneBlocksFilters) {
  Database db = SkewedBaskets(63);
  QueryFlock flock =
      Flock("answer(B) :- baskets(B,$1) AND baskets(B,$2) AND $1 < $2",
            FilterCondition::MinSupport(4));
  DynamicOptions options;
  options.aggressiveness = 100;
  options.min_removed_fraction = 1.01;  // impossible
  DynamicLog log;
  auto result = DynamicEvaluate(flock, db, options, {}, &log);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(log.filters_applied, 0u);

  auto direct = EvaluateFlock(flock, db);
  ASSERT_TRUE(direct.ok());
  result->SortRows();
  direct->SortRows();
  EXPECT_EQ(result->rows(), direct->rows());
}

TEST(DynamicOptionsTest, RemovedFractionGateSkipsUselessFilters) {
  // All items in every basket: every group passes support, nothing can be
  // removed, so even an aggressive dynamic run applies no filter.
  Database db;
  Relation baskets("baskets", Schema({"BID", "Item"}));
  for (int b = 0; b < 30; ++b) {
    for (const char* item : {"a", "b", "c"}) {
      baskets.AddRow({Value(b), Value(item)});
    }
  }
  db.PutRelation(std::move(baskets));
  QueryFlock flock =
      Flock("answer(B) :- baskets(B,$1) AND baskets(B,$2) AND $1 < $2",
            FilterCondition::MinSupport(5));
  DynamicOptions options;
  options.aggressiveness = 100;
  DynamicLog log;
  auto result = DynamicEvaluate(flock, db, options, {}, &log);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(log.filters_applied, 0u);
  EXPECT_EQ(result->size(), 3u);  // (a,b), (a,c), (b,c)
}

}  // namespace
}  // namespace qf
