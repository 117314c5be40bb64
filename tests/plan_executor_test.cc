// Tests for plan execution: every legal plan must produce exactly the
// flock's answer (the §4.2 equivalence), on fixtures and random data.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "flocks/eval.h"
#include "plan/executor.h"
#include "workload/basket_gen.h"
#include "workload/medical_gen.h"
#include "workload/web_gen.h"

namespace qf {
namespace {

QueryFlock Flock(const char* text, FilterCondition filter) {
  auto f = MakeFlock(text, filter);
  EXPECT_TRUE(f.ok()) << f.status().ToString();
  return *f;
}

void ExpectSameResult(const Relation& a, const Relation& b) {
  Relation sa = a, sb = b;
  sa.SortRows();
  sb.SortRows();
  EXPECT_EQ(sa.schema(), sb.schema());
  EXPECT_EQ(sa.rows(), sb.rows());
}

TEST(ExecutorTest, TrivialPlanMatchesDirectEval) {
  BasketConfig config{.n_baskets = 200, .n_items = 40, .avg_basket_size = 6,
                      .zipf_theta = 0.9, .seed = 7};
  Database db;
  db.PutRelation(GenerateBaskets(config));
  QueryFlock flock =
      Flock("answer(B) :- baskets(B,$1) AND baskets(B,$2) AND $1 < $2",
            FilterCondition::MinSupport(10));
  auto direct = EvaluateFlock(flock, db);
  auto planned = ExecutePlan(TrivialPlan(flock), flock, db);
  ASSERT_TRUE(direct.ok());
  ASSERT_TRUE(planned.ok()) << planned.status().ToString();
  ExpectSameResult(*direct, *planned);
}

TEST(ExecutorTest, MarketBasketPrefilterPlanMatches) {
  BasketConfig config{.n_baskets = 300, .n_items = 60, .avg_basket_size = 5,
                      .zipf_theta = 1.1, .seed = 3};
  Database db;
  db.PutRelation(GenerateBaskets(config));
  QueryFlock flock =
      Flock("answer(B) :- baskets(B,$1) AND baskets(B,$2) AND $1 < $2",
            FilterCondition::MinSupport(8));

  // Prefilter both parameters with their single-subgoal subqueries
  // (Example 3.1's optimization).
  auto ok1 =
      MakeFilterStep(flock, "ok1", {"1"}, std::vector<std::size_t>{0});
  ASSERT_TRUE(ok1.ok()) << ok1.status().ToString();
  auto ok2 =
      MakeFilterStep(flock, "ok2", {"2"}, std::vector<std::size_t>{1});
  ASSERT_TRUE(ok2.ok());
  auto plan = PlanWithPrefilters(flock, {*ok1, *ok2});
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();

  auto direct = EvaluateFlock(flock, db);
  PlanExecInfo info;
  auto planned = ExecutePlan(*plan, flock, db, {}, {}, &info);
  ASSERT_TRUE(direct.ok());
  ASSERT_TRUE(planned.ok()) << planned.status().ToString();
  ExpectSameResult(*direct, *planned);

  ASSERT_EQ(info.steps.size(), 3u);
  EXPECT_EQ(info.steps[0].step_name, "ok1");
  EXPECT_GT(info.steps[0].result_rows, 0u);
  // The prefilter must actually prune items.
  EXPECT_LT(info.steps[0].result_rows, 60u);
}

TEST(ExecutorTest, Figure5MedicalPlanMatches) {
  MedicalConfig config;
  config.n_patients = 400;
  config.n_symptoms = 60;
  config.n_medicines = 40;
  config.seed = 11;
  Database db = GenerateMedical(config);
  QueryFlock flock = Flock(
      "answer(P) :- exhibits(P,$s) AND treatments(P,$m) AND "
      "diagnoses(P,D) AND NOT causes(D,$s)",
      FilterCondition::MinSupport(5));

  auto okS = MakeFilterStep(flock, "okS", {"s"}, std::vector<std::size_t>{0});
  ASSERT_TRUE(okS.ok());
  auto okM = MakeFilterStep(flock, "okM", {"m"}, std::vector<std::size_t>{1});
  ASSERT_TRUE(okM.ok());
  auto plan = PlanWithPrefilters(flock, {*okS, *okM});
  ASSERT_TRUE(plan.ok());

  auto direct = EvaluateFlock(flock, db);
  auto planned = ExecutePlan(*plan, flock, db);
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();
  ASSERT_TRUE(planned.ok()) << planned.status().ToString();
  ExpectSameResult(*direct, *planned);
}

TEST(ExecutorTest, PairSubqueryPrefilterMatches) {
  // Subquery (4) of Ex. 3.2: filter ($s,$m) pairs via exhibits+treatments.
  MedicalConfig config;
  config.n_patients = 300;
  config.n_symptoms = 40;
  config.n_medicines = 30;
  config.seed = 13;
  Database db = GenerateMedical(config);
  QueryFlock flock = Flock(
      "answer(P) :- exhibits(P,$s) AND treatments(P,$m) AND "
      "diagnoses(P,D) AND NOT causes(D,$s)",
      FilterCondition::MinSupport(4));
  auto pair = MakeFilterStep(flock, "okPair", {"s", "m"},
                             std::vector<std::size_t>{0, 1});
  ASSERT_TRUE(pair.ok()) << pair.status().ToString();
  auto plan = PlanWithPrefilters(flock, {*pair});
  ASSERT_TRUE(plan.ok());
  auto direct = EvaluateFlock(flock, db);
  auto planned = ExecutePlan(*plan, flock, db);
  ASSERT_TRUE(direct.ok());
  ASSERT_TRUE(planned.ok()) << planned.status().ToString();
  ExpectSameResult(*direct, *planned);
}

TEST(ExecutorTest, UnionPlanMatches) {
  WebConfig config;
  config.n_docs = 200;
  config.n_words = 50;
  config.n_anchors = 300;
  config.seed = 5;
  Database db = GenerateWeb(config);
  QueryFlock flock = Flock(R"(
      answer(D) :- inTitle(D,$1) AND inTitle(D,$2) AND $1 < $2
      answer(A) :- link(A,D1,D2) AND inAnchor(A,$1) AND inTitle(D2,$2)
                   AND $1 < $2
      answer(A) :- link(A,D1,D2) AND inAnchor(A,$2) AND inTitle(D2,$1)
                   AND $1 < $2
  )",
                           FilterCondition::MinSupport(6));

  // Union prefilter on $1 (Example 3.3): per-disjunct subqueries.
  auto ok1 = MakeFilterStep(flock, "ok1", {"1"},
                            {std::vector<std::size_t>{0},    // inTitle(D,$1)
                             std::vector<std::size_t>{1},    // inAnchor(A,$1)
                             std::vector<std::size_t>{0, 2}});  // link+inTitle
  ASSERT_TRUE(ok1.ok()) << ok1.status().ToString();
  auto plan = PlanWithPrefilters(flock, {*ok1});
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();

  auto direct = EvaluateFlock(flock, db);
  auto planned = ExecutePlan(*plan, flock, db);
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();
  ASSERT_TRUE(planned.ok()) << planned.status().ToString();
  ExpectSameResult(*direct, *planned);
}

TEST(ExecutorTest, IllegalPlanRejectedByDefault) {
  Database db;
  db.PutRelation(GenerateBaskets({.n_baskets = 10, .n_items = 5,
                                  .avg_basket_size = 3, .zipf_theta = 0,
                                  .seed = 1}));
  QueryFlock flock =
      Flock("answer(B) :- baskets(B,$1) AND baskets(B,$2)",
            FilterCondition::MinSupport(2));
  QueryPlan plan = TrivialPlan(flock);
  plan.steps[0].query.disjuncts[0].subgoals.pop_back();
  EXPECT_FALSE(ExecutePlan(plan, flock, db).ok());
}

// Property: random legal prefilter subsets all agree with direct
// evaluation on random basket data.
class PlanEquivalenceProperty : public ::testing::TestWithParam<int> {};

TEST_P(PlanEquivalenceProperty, RandomPrefilterSubsetsAgree) {
  int seed = GetParam();
  Rng rng(seed);
  BasketConfig config{
      .n_baskets = 150,
      .n_items = 30,
      .avg_basket_size = 4,
      .zipf_theta = 0.8,
      .seed = static_cast<std::uint64_t>(seed) * 1000 + 17};
  Database db;
  db.PutRelation(GenerateBaskets(config));
  QueryFlock flock =
      Flock("answer(B) :- baskets(B,$1) AND baskets(B,$2) AND $1 < $2",
            FilterCondition::MinSupport(2 + seed % 5));

  std::vector<FilterStep> prefilters;
  if (rng.NextBernoulli(0.5)) {
    auto ok1 =
        MakeFilterStep(flock, "ok1", {"1"}, std::vector<std::size_t>{0});
    ASSERT_TRUE(ok1.ok());
    prefilters.push_back(*ok1);
  }
  if (rng.NextBernoulli(0.5)) {
    auto ok2 =
        MakeFilterStep(flock, "ok2", {"2"}, std::vector<std::size_t>{1});
    ASSERT_TRUE(ok2.ok());
    prefilters.push_back(*ok2);
  }
  auto plan = PlanWithPrefilters(flock, std::move(prefilters));
  ASSERT_TRUE(plan.ok());

  auto direct = EvaluateFlock(flock, db);
  auto planned = ExecutePlan(*plan, flock, db);
  ASSERT_TRUE(direct.ok());
  ASSERT_TRUE(planned.ok()) << planned.status().ToString();
  ExpectSameResult(*direct, *planned);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlanEquivalenceProperty,
                         ::testing::Range(1, 16));

}  // namespace
}  // namespace qf
