// Coverage for less-traveled paths: precomputed plan steps, the greedy
// join-order fallback for wide queries, non-monotone filters through the
// naive oracle, and negation applied mid-fold under explicit join orders.
#include <gtest/gtest.h>

#include "flocks/eval.h"
#include "flocks/naive_eval.h"
#include "optimizer/executor_support.h"
#include "optimizer/join_order.h"
#include "plan/executor.h"
#include "workload/basket_gen.h"

namespace qf {
namespace {

QueryFlock Flock(const char* text, FilterCondition filter) {
  auto f = MakeFlock(text, filter);
  EXPECT_TRUE(f.ok()) << f.status().ToString();
  return *f;
}

TEST(PrecomputedStepsTest, ExecutorUsesGivenRelation) {
  Database db;
  db.PutRelation(GenerateBaskets({.n_baskets = 120, .n_items = 15,
                                  .avg_basket_size = 4, .zipf_theta = 0.7,
                                  .seed = 81}));
  QueryFlock flock =
      Flock("answer(B) :- baskets(B,$1) AND baskets(B,$2) AND $1 < $2",
            FilterCondition::MinSupport(4));
  auto ok1 =
      MakeFilterStep(flock, "ok1", {"1"}, std::vector<std::size_t>{0});
  ASSERT_TRUE(ok1.ok());
  auto plan = PlanWithPrefilters(flock, {*ok1});
  ASSERT_TRUE(plan.ok());

  // Precompute ok1's answer by evaluating the frequent-items flock.
  QueryFlock items = Flock("answer(B) :- baskets(B,$1)",
                           FilterCondition::MinSupport(4));
  auto survivors = EvaluateFlock(items, db);
  ASSERT_TRUE(survivors.ok());

  std::map<std::string, const Relation*> precomputed = {
      {"ok1", &*survivors}};
  PlanExecOptions options;
  DatabaseStats stats = DatabaseStats::Compute(db);
  options.order_chooser = CostBasedOrderChooser(stats);
  options.precomputed_steps = &precomputed;
  PlanExecInfo info;
  auto with = ExecutePlan(*plan, flock, db, options, {}, &info);
  ASSERT_TRUE(with.ok()) << with.status().ToString();
  // The step was skipped (no evaluation work recorded) but its survivors
  // were used.
  ASSERT_GE(info.steps.size(), 1u);
  EXPECT_EQ(info.steps[0].step_name, "ok1");
  EXPECT_EQ(info.steps[0].result_rows, survivors->size());
  EXPECT_EQ(info.steps[0].peak_rows, 0u);

  auto without = ExecutePlanOptimized(*plan, flock, db, stats);
  ASSERT_TRUE(without.ok());
  with->SortRows();
  without->SortRows();
  EXPECT_EQ(with->rows(), without->rows());
}

TEST(JoinOrderTest, GreedyFallbackForWideQueries) {
  // 18 positive subgoals exceeds the DP limit; the greedy path must still
  // produce a valid permutation.
  Database db;
  Relation arc("arc", Schema({"S", "T"}));
  arc.AddRow({Value(0), Value(1)});
  db.PutRelation(arc);
  ConjunctiveQuery cq;
  cq.head_vars = {"X0"};
  for (int i = 0; i < 18; ++i) {
    cq.subgoals.push_back(Subgoal::Positive(
        "arc", {Term::Variable("X" + std::to_string(i)),
                Term::Variable("X" + std::to_string(i + 1))}));
  }
  CostModel model(DatabaseStats::Compute(db));
  std::vector<std::size_t> order = ChooseJoinOrder(cq, model);
  ASSERT_EQ(order.size(), 18u);
  std::vector<std::size_t> sorted = order;
  std::sort(sorted.begin(), sorted.end());
  for (std::size_t i = 0; i < sorted.size(); ++i) EXPECT_EQ(sorted[i], i);
}

TEST(NaiveOracleTest, NonMonotoneCountUpperBound) {
  // "Items in at most 2 baskets" — not monotone, rejected by the direct
  // evaluator, answered by the oracle.
  Database db;
  Relation r("baskets", Schema({"BID", "Item"}));
  for (int b = 0; b < 4; ++b) r.AddRow({Value(b), Value("common")});
  r.AddRow({Value(0), Value("rare")});
  r.AddRow({Value(1), Value("rare")});
  db.PutRelation(std::move(r));

  QueryFlock f = Flock("answer(B) :- baskets(B,$1)",
                       {FilterAgg::kCount, CompareOp::kLe, 2, 0});
  EXPECT_FALSE(EvaluateFlock(f, db).ok());
  auto naive = NaiveEvaluateFlock(f, db);
  ASSERT_TRUE(naive.ok()) << naive.status().ToString();
  ASSERT_EQ(naive->size(), 1u);
  EXPECT_TRUE(naive->Contains({Value("rare")}));
}

TEST(NaiveOracleTest, ExactCountFilter) {
  Database db;
  Relation r("baskets", Schema({"BID", "Item"}));
  for (int b = 0; b < 3; ++b) r.AddRow({Value(b), Value("three")});
  for (int b = 0; b < 2; ++b) r.AddRow({Value(b), Value("two")});
  db.PutRelation(std::move(r));
  QueryFlock f = Flock("answer(B) :- baskets(B,$1)",
                       {FilterAgg::kCount, CompareOp::kEq, 2, 0});
  auto naive = NaiveEvaluateFlock(f, db);
  ASSERT_TRUE(naive.ok());
  ASSERT_EQ(naive->size(), 1u);
  EXPECT_TRUE(naive->Contains({Value("two")}));
}

TEST(JoinOrderInteractionTest, NegationAppliedMidFoldIsCorrect) {
  // With order {q, r}, the negation NOT s(X,Y) becomes applicable after
  // the first join; with order {r, q} after the first leaf. Results must
  // agree either way.
  Database db;
  Relation q("q", Schema({"X", "Y"}));
  Relation r("r", Schema({"Y", "Z"}));
  Relation s("s", Schema({"X", "Y"}));
  for (int i = 0; i < 6; ++i) {
    q.AddRow({Value(i), Value(i % 3)});
    r.AddRow({Value(i % 3), Value(i)});
    if (i % 2 == 0) s.AddRow({Value(i), Value(i % 3)});
  }
  db.PutRelation(q);
  db.PutRelation(r);
  db.PutRelation(s);
  QueryFlock f = Flock(
      "answer(Z) :- q(X,$p) AND r($p,Z) AND NOT s(X,$p)",
      FilterCondition::MinSupport(1));
  FlockEvalOptions forward, backward;
  forward.per_disjunct.push_back({.join_order = {0, 1}});
  backward.per_disjunct.push_back({.join_order = {1, 0}});
  auto a = EvaluateFlock(f, db, forward);
  auto b = EvaluateFlock(f, db, backward);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok());
  a->SortRows();
  b->SortRows();
  EXPECT_EQ(a->rows(), b->rows());
  // And both agree with the oracle.
  auto naive = NaiveEvaluateFlock(f, db);
  ASSERT_TRUE(naive.ok());
  naive->SortRows();
  EXPECT_EQ(a->rows(), naive->rows());
}

}  // namespace
}  // namespace qf
