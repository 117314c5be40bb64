// Tests for the k-itemset flock builder and the levelwise a-priori plans
// of §4.3 (restriction 2): shape, legality, and agreement with both the
// direct evaluator and the hand-coded a-priori miner.
#include <gtest/gtest.h>

#include "apriori/apriori.h"
#include "flocks/eval.h"
#include "optimizer/executor_support.h"
#include "optimizer/itemset_plans.h"
#include "plan/legality.h"
#include "workload/basket_gen.h"

namespace qf {
namespace {

Database SmallDb(std::uint64_t seed = 3) {
  BasketConfig config;
  config.n_baskets = 400;
  config.n_items = 60;
  config.avg_basket_size = 6;
  config.zipf_theta = 0.8;
  config.topic_locality = 0.5;
  config.n_topics = 10;
  config.seed = seed;
  Database db;
  db.PutRelation(GenerateBaskets(config));
  return db;
}

TEST(ItemsetFlockTest, PairFlockShape) {
  auto flock = MakeItemsetFlock("baskets", 2, 10);
  ASSERT_TRUE(flock.ok());
  EXPECT_EQ(flock->query.disjuncts[0].ToString(),
            "answer(B) :- baskets(B,$1) AND baskets(B,$2) AND $1 < $2");
}

TEST(ItemsetFlockTest, TripleFlockShape) {
  auto flock = MakeItemsetFlock("baskets", 3, 10);
  ASSERT_TRUE(flock.ok());
  const ConjunctiveQuery& cq = flock->query.disjuncts[0];
  EXPECT_EQ(cq.subgoals.size(), 5u);
  EXPECT_EQ(cq.Parameters(), (std::set<std::string>{"1", "2", "3"}));
}

TEST(ItemsetFlockTest, RejectsKBelow2) {
  EXPECT_FALSE(MakeItemsetFlock("baskets", 1, 10).ok());
}

TEST(ItemsetPlanTest, PairPlanLegal) {
  auto flock = MakeItemsetFlock("baskets", 2, 10);
  ASSERT_TRUE(flock.ok());
  auto plan = ItemsetAprioriPlan(*flock, 2, 1);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(plan->steps.size(), 3u);  // ok_1, ok_2, final
  EXPECT_TRUE(CheckLegal(*plan, *flock).ok());
}

TEST(ItemsetPlanTest, TriplePlanWithPairPrefiltersLegal) {
  auto flock = MakeItemsetFlock("baskets", 3, 10);
  ASSERT_TRUE(flock.ok());
  auto plan = ItemsetAprioriPlan(*flock, 3, 2);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_EQ(plan->steps.size(), 4u);  // ok_1_2, ok_1_3, ok_2_3, final
  EXPECT_EQ(plan->steps[0].result_name, "ok_1_2");
  EXPECT_EQ(plan->steps[1].result_name, "ok_1_3");
  EXPECT_EQ(plan->steps[2].result_name, "ok_2_3");
  EXPECT_TRUE(CheckLegal(*plan, *flock).ok());
}

TEST(ItemsetPlanTest, NonAdjacentSubsetDropsComparison) {
  auto flock = MakeItemsetFlock("baskets", 3, 10);
  ASSERT_TRUE(flock.ok());
  auto plan = ItemsetAprioriPlan(*flock, 3, 2);
  ASSERT_TRUE(plan.ok());
  // ok_1_3 keeps no comparison ($1 < $3 is not an original subgoal).
  const ConjunctiveQuery& cq13 = plan->steps[1].query.disjuncts[0];
  for (const Subgoal& s : cq13.subgoals) {
    EXPECT_FALSE(s.is_comparison()) << s.ToString();
  }
}

TEST(ItemsetPlanTest, RejectsBadSubsetSize) {
  auto flock = MakeItemsetFlock("baskets", 3, 10);
  ASSERT_TRUE(flock.ok());
  EXPECT_FALSE(ItemsetAprioriPlan(*flock, 3, 0).ok());
  EXPECT_FALSE(ItemsetAprioriPlan(*flock, 3, 3).ok());
}

TEST(ItemsetPlanTest, RejectsForeignFlockShape) {
  auto other = MakeFlock("answer(B) :- baskets(B,$1)",
                         FilterCondition::MinSupport(5));
  ASSERT_TRUE(other.ok());
  EXPECT_FALSE(ItemsetAprioriPlan(*other, 2, 1).ok());
}

TEST(ItemsetPlanTest, TriplesMatchDirectAndApriori) {
  Database db = SmallDb();
  auto flock = MakeItemsetFlock("baskets", 3, 6);
  ASSERT_TRUE(flock.ok());
  auto plan = ItemsetAprioriPlan(*flock, 3, 2);
  ASSERT_TRUE(plan.ok());

  auto direct = EvaluateFlock(*flock, db);
  auto planned =
      ExecutePlanOptimized(*plan, *flock, db, DatabaseStats::Compute(db));
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();
  ASSERT_TRUE(planned.ok()) << planned.status().ToString();
  direct->SortRows();
  planned->SortRows();
  EXPECT_EQ(direct->rows(), planned->rows());

  auto data = BasketsFromRelation(db.Get("baskets"), "BID", "Item");
  ASSERT_TRUE(data.ok());
  std::vector<Itemset> frequent =
      AprioriFrequentItemsets(*data, {.min_support = 6, .max_size = 3});
  std::size_t triples = 0;
  for (const Itemset& s : frequent) {
    if (s.items.size() != 3) continue;
    ++triples;
    EXPECT_TRUE(direct->Contains({Value(data->item_names[s.items[0]]),
                                  Value(data->item_names[s.items[1]]),
                                  Value(data->item_names[s.items[2]])}));
  }
  EXPECT_EQ(direct->size(), triples);
}

TEST(ItemsetPlanTest, SingletonPrefiltersAlsoWork) {
  Database db = SmallDb(9);
  auto flock = MakeItemsetFlock("baskets", 3, 5);
  ASSERT_TRUE(flock.ok());
  auto plan = ItemsetAprioriPlan(*flock, 3, 1);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->steps.size(), 4u);  // ok_1, ok_2, ok_3, final
  auto direct = EvaluateFlock(*flock, db);
  auto planned =
      ExecutePlanOptimized(*plan, *flock, db, DatabaseStats::Compute(db));
  ASSERT_TRUE(direct.ok());
  ASSERT_TRUE(planned.ok()) << planned.status().ToString();
  direct->SortRows();
  planned->SortRows();
  EXPECT_EQ(direct->rows(), planned->rows());
}

}  // namespace
}  // namespace qf
