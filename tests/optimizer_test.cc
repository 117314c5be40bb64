// Tests for statistics, the cost model, join ordering, and static plan
// search (heuristics 1 and 2 of §4.3 plus the exhaustive search).
#include <gtest/gtest.h>

#include "datalog/parser.h"
#include "flocks/eval.h"
#include "optimizer/cost_model.h"
#include "optimizer/join_order.h"
#include "optimizer/plan_search.h"
#include "optimizer/stats.h"
#include "plan/executor.h"
#include "plan/legality.h"
#include "workload/basket_gen.h"
#include "workload/graph_gen.h"
#include "workload/medical_gen.h"

namespace qf {
namespace {

ConjunctiveQuery Parse(const char* text) {
  auto cq = ParseRule(text);
  EXPECT_TRUE(cq.ok()) << cq.status().ToString();
  return *cq;
}

QueryFlock Flock(const char* text, FilterCondition filter) {
  auto f = MakeFlock(text, filter);
  EXPECT_TRUE(f.ok()) << f.status().ToString();
  return *f;
}

TEST(StatsTest, ComputeStatsCountsDistinct) {
  Relation r("r", Schema({"A", "B"}));
  r.AddRow({Value(1), Value("x")});
  r.AddRow({Value(1), Value("y")});
  r.AddRow({Value(2), Value("x")});
  RelationStats stats = ComputeStats(r);
  EXPECT_EQ(stats.rows, 3u);
  EXPECT_EQ(stats.column_distinct, (std::vector<std::size_t>{2, 2}));
}

TEST(StatsTest, DatabaseStatsCoversAllRelations) {
  Database db;
  db.PutRelation(Relation("a", Schema({"X"})));
  Relation b("b", Schema({"Y"}));
  b.AddRow({Value(1)});
  db.PutRelation(b);
  DatabaseStats stats = DatabaseStats::Compute(db);
  ASSERT_NE(stats.Find("a"), nullptr);
  ASSERT_NE(stats.Find("b"), nullptr);
  EXPECT_EQ(stats.Find("b")->rows, 1u);
  EXPECT_EQ(stats.Find("missing"), nullptr);
}

class CostModelTest : public ::testing::Test {
 protected:
  CostModelTest() {
    db_.PutRelation(GenerateBaskets({.n_baskets = 500, .n_items = 100,
                                     .avg_basket_size = 6, .zipf_theta = 1.0,
                                     .seed = 2}));
  }
  Database db_;
};

TEST_F(CostModelTest, SubgoalEstimateMatchesBaseSize) {
  CostModel model(DatabaseStats::Compute(db_));
  Subgoal sg = Subgoal::Positive(
      "baskets", {Term::Variable("B"), Term::Parameter("1")});
  EXPECT_DOUBLE_EQ(model.EstimateSubgoalRows(sg),
                   static_cast<double>(db_.Get("baskets").size()));
}

TEST_F(CostModelTest, ConstantReducesEstimate) {
  CostModel model(DatabaseStats::Compute(db_));
  Subgoal with_const = Subgoal::Positive(
      "baskets", {Term::Variable("B"), Term::Constant(Value("item00000"))});
  Subgoal without = Subgoal::Positive(
      "baskets", {Term::Variable("B"), Term::Variable("I")});
  EXPECT_LT(model.EstimateSubgoalRows(with_const),
            model.EstimateSubgoalRows(without));
}

TEST_F(CostModelTest, UnknownRelationUsesDefaults) {
  CostModel model(DatabaseStats::Compute(db_));
  Subgoal sg = Subgoal::Positive("mystery", {Term::Variable("X")});
  EXPECT_DOUBLE_EQ(model.EstimateSubgoalRows(sg),
                   model.config().default_rows);
}

TEST_F(CostModelTest, JoinEstimateGrowsWithSubgoals) {
  CostModel model(DatabaseStats::Compute(db_));
  ConjunctiveQuery one = Parse("answer(B) :- baskets(B,$1)");
  ConjunctiveQuery two = Parse("answer(B) :- baskets(B,$1) AND baskets(B,$2)");
  EXPECT_LT(model.EstimateCq(one).cost, model.EstimateCq(two).cost);
}

TEST_F(CostModelTest, InequalityHalvesEstimate) {
  CostModel model(DatabaseStats::Compute(db_));
  ConjunctiveQuery plain =
      Parse("answer(B) :- baskets(B,$1) AND baskets(B,$2)");
  ConjunctiveQuery ordered =
      Parse("answer(B) :- baskets(B,$1) AND baskets(B,$2) AND $1 < $2");
  EXPECT_NEAR(model.EstimateCq(ordered).result_rows,
              model.EstimateCq(plain).result_rows *
                  model.config().inequality_selectivity,
              1e-6);
}

TEST_F(CostModelTest, FilterEstimateMonotoneInThreshold) {
  CostModel model(DatabaseStats::Compute(db_));
  ConjunctiveQuery cq = Parse("answer(B) :- baskets(B,$1)");
  auto f5 = model.EstimateFilter(cq, 5);
  auto f50 = model.EstimateFilter(cq, 50);
  EXPECT_GE(f5.survival_fraction, f50.survival_fraction);
  EXPECT_GE(f5.survivors, f50.survivors);
  EXPECT_LE(f5.survival_fraction, 1.0);
}

TEST_F(CostModelTest, ThresholdOneKeepsEverything) {
  CostModel model(DatabaseStats::Compute(db_));
  ConjunctiveQuery cq = Parse("answer(B) :- baskets(B,$1)");
  EXPECT_DOUBLE_EQ(model.EstimateFilter(cq, 1).survival_fraction, 1.0);
}

TEST(JoinOrderTest, ReturnsValidPermutation) {
  MedicalConfig config;
  config.n_patients = 200;
  config.seed = 3;
  Database db = GenerateMedical(config);
  CostModel model(DatabaseStats::Compute(db));
  ConjunctiveQuery cq = Parse(
      "answer(P) :- exhibits(P,$s) AND treatments(P,$m) AND "
      "diagnoses(P,D) AND NOT causes(D,$s)");
  std::vector<std::size_t> order = ChooseJoinOrder(cq, model);
  ASSERT_EQ(order.size(), 3u);  // three positive subgoals
  std::vector<std::size_t> sorted = order;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, (std::vector<std::size_t>{0, 1, 2}));
}

TEST(JoinOrderTest, ChosenOrderNoWorseThanTextOrder) {
  MedicalConfig config;
  config.n_patients = 200;
  config.seed = 4;
  Database db = GenerateMedical(config);
  CostModel model(DatabaseStats::Compute(db));
  ConjunctiveQuery cq = Parse(
      "answer(P) :- diagnoses(P,D) AND exhibits(P,$s) AND "
      "treatments(P,$m)");
  std::vector<std::size_t> order = ChooseJoinOrder(cq, model);
  EXPECT_LE(model.EstimateCq(cq, order).cost, model.EstimateCq(cq).cost);
}

TEST(JoinOrderTest, OrderedEvaluationStillCorrect) {
  Database db;
  db.PutRelation(GenerateBaskets({.n_baskets = 100, .n_items = 20,
                                  .avg_basket_size = 4, .zipf_theta = 0.9,
                                  .seed = 5}));
  CostModel model(DatabaseStats::Compute(db));
  QueryFlock flock =
      Flock("answer(B) :- baskets(B,$1) AND baskets(B,$2) AND $1 < $2",
            FilterCondition::MinSupport(3));
  auto plain = EvaluateFlock(flock, db);
  auto ordered = EvaluateFlock(flock, db, ChooseJoinOrders(flock, model));
  ASSERT_TRUE(plain.ok());
  ASSERT_TRUE(ordered.ok()) << ordered.status().ToString();
  plain->SortRows();
  ordered->SortRows();
  EXPECT_EQ(plain->rows(), ordered->rows());
}

TEST(PlanSearchTest, Heuristic1ProducesLegalCorrectPlan) {
  MedicalConfig config;
  config.n_patients = 300;
  config.n_symptoms = 80;
  config.n_medicines = 60;
  config.symptom_theta = 1.2;
  config.seed = 6;
  Database db = GenerateMedical(config);
  CostModel model(DatabaseStats::Compute(db));
  QueryFlock flock = Flock(
      "answer(P) :- exhibits(P,$s) AND treatments(P,$m) AND "
      "diagnoses(P,D) AND NOT causes(D,$s)",
      FilterCondition::MinSupport(6));

  auto plan = SearchPlanParameterSets(flock, model);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_TRUE(CheckLegal(*plan, flock).ok());

  auto direct = EvaluateFlock(flock, db);
  auto planned = ExecutePlan(*plan, flock, db);
  ASSERT_TRUE(direct.ok());
  ASSERT_TRUE(planned.ok()) << planned.status().ToString();
  direct->SortRows();
  planned->SortRows();
  EXPECT_EQ(direct->rows(), planned->rows());
}

TEST(PlanSearchTest, SelectivePrefiltersChosenOnSkewedData) {
  // With a high threshold relative to data size, singleton survival is low
  // and the search should include prefilters.
  MedicalConfig config;
  config.n_patients = 400;
  config.n_symptoms = 200;
  config.symptom_theta = 1.3;
  config.seed = 7;
  Database db = GenerateMedical(config);
  CostModel model(DatabaseStats::Compute(db));
  QueryFlock flock = Flock(
      "answer(P) :- exhibits(P,$s) AND treatments(P,$m) AND "
      "diagnoses(P,D) AND NOT causes(D,$s)",
      FilterCondition::MinSupport(15));
  auto plan = SearchPlanParameterSets(flock, model);
  ASSERT_TRUE(plan.ok());
  EXPECT_GT(plan->steps.size(), 1u);
}

TEST(PlanSearchTest, NonCountFilterFallsBackToTrivial) {
  Database db;
  db.PutRelation(GenerateBaskets({.n_baskets = 50, .n_items = 10,
                                  .avg_basket_size = 3, .zipf_theta = 0.5,
                                  .seed = 8}));
  db.PutRelation(GenerateImportance({.n_baskets = 50, .seed = 8}, 5.0));
  CostModel model(DatabaseStats::Compute(db));
  QueryFlock flock =
      Flock("answer(B,W) :- baskets(B,$1) AND importance(B,W)",
            {FilterAgg::kSum, CompareOp::kGe, 10, 1});
  auto plan = SearchPlanParameterSets(flock, model);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->steps.size(), 1u);
}

TEST(PlanSearchTest, CascadePlanLegalAndCorrect) {
  GraphConfig config{.n_nodes = 150, .avg_out_degree = 4,
                     .target_theta = 0.8, .seed = 9};
  Database db;
  db.PutRelation(GenerateGraph(config));
  QueryFlock flock =
      Flock("answer(X) :- arc($1,X) AND arc(X,Y1) AND arc(Y1,Y2)",
            FilterCondition::MinSupport(3));

  // Cascade: ok0 from arc($1,X); ok1 from arc($1,X),arc(X,Y1)+ok0; final.
  auto plan = CascadePlan(flock, {{0}, {0, 1}});
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_EQ(plan->steps.size(), 3u);
  EXPECT_TRUE(CheckLegal(*plan, flock).ok());

  auto direct = EvaluateFlock(flock, db);
  auto planned = ExecutePlan(*plan, flock, db);
  ASSERT_TRUE(direct.ok());
  ASSERT_TRUE(planned.ok()) << planned.status().ToString();
  direct->SortRows();
  planned->SortRows();
  EXPECT_EQ(direct->rows(), planned->rows());
}

TEST(PlanSearchTest, CascadeRejectsUnions) {
  QueryFlock flock = Flock(
      "answer(B) :- p(B,$1)\nanswer(B) :- q(B,$1)",
      FilterCondition::MinSupport(2));
  EXPECT_EQ(CascadePlan(flock, {{0}}).status().code(),
            StatusCode::kUnimplemented);
}

TEST(PlanSearchTest, ExhaustiveSearchFindsLegalPlan) {
  MedicalConfig config;
  config.n_patients = 250;
  config.seed = 10;
  Database db = GenerateMedical(config);
  CostModel model(DatabaseStats::Compute(db));
  QueryFlock flock = Flock(
      "answer(P) :- exhibits(P,$s) AND treatments(P,$m) AND "
      "diagnoses(P,D) AND NOT causes(D,$s)",
      FilterCondition::MinSupport(8));
  auto result = ExhaustivePrefilterSearch(flock, model);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->plans_considered, 1u);
  EXPECT_TRUE(CheckLegal(result->plan, flock).ok());
  // The chosen plan's estimate is no worse than the trivial plan's.
  double trivial_cost =
      EstimatePlanCost(TrivialPlan(flock), flock, model);
  EXPECT_LE(result->estimated_cost, trivial_cost + 1e-9);
}

TEST(PlanSearchTest, EstimatePlanCostAccountsForPrefilterShrinkage) {
  MedicalConfig config;
  config.n_patients = 300;
  config.n_symptoms = 150;
  config.symptom_theta = 1.3;
  config.seed = 11;
  Database db = GenerateMedical(config);
  CostModel model(DatabaseStats::Compute(db));
  QueryFlock flock = Flock(
      "answer(P) :- exhibits(P,$s) AND treatments(P,$m) AND "
      "diagnoses(P,D) AND NOT causes(D,$s)",
      FilterCondition::MinSupport(20));
  auto okS = MakeFilterStep(flock, "okS", {"s"}, std::vector<std::size_t>{0});
  ASSERT_TRUE(okS.ok());
  auto with = PlanWithPrefilters(flock, {*okS});
  ASSERT_TRUE(with.ok());
  double with_cost = EstimatePlanCost(*with, flock, model);
  EXPECT_GT(with_cost, 0);
}

}  // namespace
}  // namespace qf
