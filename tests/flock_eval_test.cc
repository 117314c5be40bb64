// Tests for QueryFlock, the direct evaluator, and the naive generate-and-
// test oracle — including the paper's running examples (Figs. 2, 3, 4, 10)
// and randomized equivalence properties between the two evaluators.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"
#include "flocks/eval.h"
#include "flocks/flock.h"
#include "flocks/naive_eval.h"

namespace qf {
namespace {

QueryFlock Flock(const char* text, FilterCondition filter) {
  auto f = MakeFlock(text, filter);
  EXPECT_TRUE(f.ok()) << f.status().ToString();
  return *f;
}

Database SmallBaskets() {
  // beer+diapers in baskets 1..3; beer+wine in basket 4; solo items after.
  Database db;
  Relation r("baskets", Schema({"BID", "Item"}));
  for (int b = 1; b <= 3; ++b) {
    r.AddRow({Value(b), Value("beer")});
    r.AddRow({Value(b), Value("diapers")});
  }
  r.AddRow({Value(4), Value("beer")});
  r.AddRow({Value(4), Value("wine")});
  r.AddRow({Value(5), Value("wine")});
  db.PutRelation(std::move(r));
  return db;
}

TEST(FlockTest, ValidateAcceptsPaperExamples) {
  QueryFlock f =
      Flock("answer(B) :- baskets(B,$1) AND baskets(B,$2) AND $1 < $2",
            FilterCondition::MinSupport(20));
  EXPECT_TRUE(f.Validate().ok());
  EXPECT_EQ(f.ParameterNames(), (std::vector<std::string>{"1", "2"}));
}

TEST(FlockTest, ValidateRejectsParameterFreeQuery) {
  auto f = MakeFlock("answer(B) :- baskets(B,X)",
                     FilterCondition::MinSupport(20));
  EXPECT_FALSE(f.ok());
}

TEST(FlockTest, ValidateRejectsUnsafeQuery) {
  auto f = MakeFlock("answer(B) :- baskets(B,$1) AND $2 < $1",
                     FilterCondition::MinSupport(20));
  EXPECT_FALSE(f.ok());
}

TEST(FlockTest, ValidateRejectsMismatchedDisjunctParameters) {
  auto f = MakeFlock("answer(B) :- p(B,$1)\nanswer(B) :- q(B,$2)",
                     FilterCondition::MinSupport(20));
  EXPECT_FALSE(f.ok());
}

TEST(FlockTest, ValidateAgainstDatabaseChecksPredicates) {
  Database db = SmallBaskets();
  QueryFlock ok = Flock("answer(B) :- baskets(B,$1)",
                        FilterCondition::MinSupport(2));
  EXPECT_TRUE(ok.Validate(&db).ok());

  QueryFlock missing = Flock("answer(B) :- shelves(B,$1)",
                             FilterCondition::MinSupport(2));
  EXPECT_EQ(missing.Validate(&db).code(), StatusCode::kNotFound);

  QueryFlock bad_arity = Flock("answer(B) :- baskets(B,$1,X)",
                               FilterCondition::MinSupport(2));
  EXPECT_EQ(bad_arity.Validate(&db).code(), StatusCode::kInvalidArgument);
}

TEST(FlockTest, ToStringShowsQueryAndFilter) {
  QueryFlock f = Flock("answer(B) :- baskets(B,$1) AND baskets(B,$2)",
                       FilterCondition::MinSupport(20));
  std::string s = f.ToString();
  EXPECT_NE(s.find("QUERY:"), std::string::npos);
  EXPECT_NE(s.find("COUNT(answer.B) >= 20"), std::string::npos);
}

TEST(FilterTest, Monotonicity) {
  EXPECT_TRUE(FilterCondition::MinSupport(20).IsMonotone());
  EXPECT_TRUE(
      (FilterCondition{FilterAgg::kSum, CompareOp::kGe, 5, 0}).IsMonotone());
  EXPECT_TRUE(
      (FilterCondition{FilterAgg::kMax, CompareOp::kGt, 5, 0}).IsMonotone());
  EXPECT_TRUE(
      (FilterCondition{FilterAgg::kMin, CompareOp::kLe, 5, 0}).IsMonotone());
  EXPECT_FALSE(
      (FilterCondition{FilterAgg::kCount, CompareOp::kLe, 5, 0}).IsMonotone());
  EXPECT_FALSE(
      (FilterCondition{FilterAgg::kMin, CompareOp::kGe, 5, 0}).IsMonotone());
}

TEST(DirectEvalTest, MarketBasketPairs) {
  Database db = SmallBaskets();
  QueryFlock f =
      Flock("answer(B) :- baskets(B,$1) AND baskets(B,$2) AND $1 < $2",
            FilterCondition::MinSupport(3));
  auto result = EvaluateFlock(f, db);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->size(), 1u);
  EXPECT_TRUE(result->Contains({Value("beer"), Value("diapers")}));
}

TEST(DirectEvalTest, ThresholdBoundary) {
  Database db = SmallBaskets();
  // Support 1: all co-occurring ordered pairs (beer,diapers),(beer,wine).
  QueryFlock f1 =
      Flock("answer(B) :- baskets(B,$1) AND baskets(B,$2) AND $1 < $2",
            FilterCondition::MinSupport(1));
  auto r1 = EvaluateFlock(f1, db);
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(r1->size(), 2u);

  // Support 4: nothing qualifies.
  QueryFlock f4 =
      Flock("answer(B) :- baskets(B,$1) AND baskets(B,$2) AND $1 < $2",
            FilterCondition::MinSupport(4));
  auto r4 = EvaluateFlock(f4, db);
  ASSERT_TRUE(r4.ok());
  EXPECT_TRUE(r4->empty());
}

TEST(DirectEvalTest, WithoutOrderingPairsAppearBothWays) {
  Database db = SmallBaskets();
  QueryFlock f = Flock("answer(B) :- baskets(B,$1) AND baskets(B,$2)",
                       FilterCondition::MinSupport(3));
  auto result = EvaluateFlock(f, db);
  ASSERT_TRUE(result.ok());
  // (beer,beer), (diapers,diapers), (beer,diapers), (diapers,beer),
  // plus (beer,beer) already counted — and wine pairs are below support.
  EXPECT_EQ(result->size(), 4u);
  EXPECT_TRUE(result->Contains({Value("beer"), Value("diapers")}));
  EXPECT_TRUE(result->Contains({Value("diapers"), Value("beer")}));
  EXPECT_TRUE(result->Contains({Value("beer"), Value("beer")}));
}

TEST(DirectEvalTest, RejectsNonMonotoneFilter) {
  Database db = SmallBaskets();
  QueryFlock f = Flock("answer(B) :- baskets(B,$1)",
                       {FilterAgg::kCount, CompareOp::kLe, 2, 0});
  EXPECT_FALSE(EvaluateFlock(f, db).ok());
}

TEST(DirectEvalTest, InfoReportsSizes) {
  Database db = SmallBaskets();
  QueryFlock f = Flock("answer(B) :- baskets(B,$1) AND baskets(B,$2)",
                       FilterCondition::MinSupport(1));
  FlockEvalInfo info;
  auto result = EvaluateFlock(f, db, {}, {}, nullptr, &info);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(info.peak_rows, 0u);
  EXPECT_GT(info.answer_rows, 0u);
}

TEST(NaiveEvalTest, AgreesOnMarketBasket) {
  Database db = SmallBaskets();
  QueryFlock f =
      Flock("answer(B) :- baskets(B,$1) AND baskets(B,$2) AND $1 < $2",
            FilterCondition::MinSupport(2));
  auto direct = EvaluateFlock(f, db);
  auto naive = NaiveEvaluateFlock(f, db);
  ASSERT_TRUE(direct.ok());
  ASSERT_TRUE(naive.ok()) << naive.status().ToString();
  direct->SortRows();
  naive->SortRows();
  EXPECT_EQ(direct->rows(), naive->rows());
}

TEST(NaiveEvalTest, EnforcesAssignmentBudget) {
  Database db = SmallBaskets();
  QueryFlock f =
      Flock("answer(B) :- baskets(B,$1) AND baskets(B,$2) AND $1 < $2",
            FilterCondition::MinSupport(2));
  NaiveEvalOptions options;
  options.max_assignments = 2;  // 3 items x 3 items > 2
  EXPECT_FALSE(NaiveEvaluateFlock(f, db, options).ok());
}

Database MedicalFixture() {
  Database db;
  Relation diagnoses("diagnoses", Schema({"Patient", "Disease"}));
  Relation exhibits("exhibits", Schema({"Patient", "Symptom"}));
  Relation treatments("treatments", Schema({"Patient", "Medicine"}));
  Relation causes("causes", Schema({"Disease", "Symptom"}));
  // Three patients on drugX with unexplained rash; one whose fever is
  // explained by flu.
  for (int i = 0; i < 3; ++i) {
    std::string p = "p" + std::to_string(i);
    diagnoses.AddRow({Value(p), Value("flu")});
    exhibits.AddRow({Value(p), Value("rash")});
    treatments.AddRow({Value(p), Value("drugX")});
  }
  diagnoses.AddRow({Value("q"), Value("flu")});
  exhibits.AddRow({Value("q"), Value("fever")});
  treatments.AddRow({Value("q"), Value("drugX")});
  causes.AddRow({Value("flu"), Value("fever")});
  db.PutRelation(diagnoses);
  db.PutRelation(exhibits);
  db.PutRelation(treatments);
  db.PutRelation(causes);
  return db;
}

TEST(DirectEvalTest, MedicalSideEffects) {
  Database db = MedicalFixture();
  QueryFlock f = Flock(
      "answer(P) :- exhibits(P,$s) AND treatments(P,$m) AND "
      "diagnoses(P,D) AND NOT causes(D,$s)",
      FilterCondition::MinSupport(3));
  auto result = EvaluateFlock(f, db);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->size(), 1u);
  // Result columns are sorted parameters: $m, $s.
  EXPECT_TRUE(result->Contains({Value("drugX"), Value("rash")}));
}

TEST(NaiveEvalTest, AgreesOnMedical) {
  Database db = MedicalFixture();
  QueryFlock f = Flock(
      "answer(P) :- exhibits(P,$s) AND treatments(P,$m) AND "
      "diagnoses(P,D) AND NOT causes(D,$s)",
      FilterCondition::MinSupport(2));
  auto direct = EvaluateFlock(f, db);
  auto naive = NaiveEvaluateFlock(f, db);
  ASSERT_TRUE(direct.ok());
  ASSERT_TRUE(naive.ok());
  direct->SortRows();
  naive->SortRows();
  EXPECT_EQ(direct->rows(), naive->rows());
}

Database WebFixture() {
  Database db;
  Relation in_title("inTitle", Schema({"Doc", "Word"}));
  Relation in_anchor("inAnchor", Schema({"Anchor", "Word"}));
  Relation link("link", Schema({"Anchor", "From", "To"}));
  // "alpha beta" co-occur in two titles and via one anchor->title link.
  in_title.AddRow({Value("d1"), Value("alpha")});
  in_title.AddRow({Value("d1"), Value("beta")});
  in_title.AddRow({Value("d2"), Value("alpha")});
  in_title.AddRow({Value("d2"), Value("beta")});
  in_title.AddRow({Value("d3"), Value("beta")});
  in_anchor.AddRow({Value("a1"), Value("alpha")});
  link.AddRow({Value("a1"), Value("d9"), Value("d3")});
  db.PutRelation(in_title);
  db.PutRelation(in_anchor);
  db.PutRelation(link);
  return db;
}

const char* kWebQuery = R"(
    answer(D) :- inTitle(D,$1) AND inTitle(D,$2) AND $1 < $2
    answer(A) :- link(A,D1,D2) AND inAnchor(A,$1) AND inTitle(D2,$2)
                 AND $1 < $2
    answer(A) :- link(A,D1,D2) AND inAnchor(A,$2) AND inTitle(D2,$1)
                 AND $1 < $2
)";

TEST(DirectEvalTest, UnionFlockCountsAcrossDisjuncts) {
  Database db = WebFixture();
  // alpha/beta: two title co-occurrences (d1,d2) + one anchor hit (a1) = 3.
  QueryFlock f = Flock(kWebQuery, FilterCondition::MinSupport(3));
  auto result = EvaluateFlock(f, db);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->size(), 1u);
  EXPECT_TRUE(result->Contains({Value("alpha"), Value("beta")}));

  // At support 4 nothing survives.
  QueryFlock f4 = Flock(kWebQuery, FilterCondition::MinSupport(4));
  auto r4 = EvaluateFlock(f4, db);
  ASSERT_TRUE(r4.ok());
  EXPECT_TRUE(r4->empty());
}

TEST(NaiveEvalTest, AgreesOnUnionFlock) {
  Database db = WebFixture();
  QueryFlock f = Flock(kWebQuery, FilterCondition::MinSupport(2));
  auto direct = EvaluateFlock(f, db);
  auto naive = NaiveEvaluateFlock(f, db);
  ASSERT_TRUE(direct.ok());
  ASSERT_TRUE(naive.ok());
  direct->SortRows();
  naive->SortRows();
  EXPECT_EQ(direct->rows(), naive->rows());
}

TEST(MonotoneFilterTest, WeightedBasketsSumFilter) {
  // Fig. 10: weighted market baskets with SUM(answer.W) >= threshold.
  Database db = SmallBaskets();
  Relation importance("importance", Schema({"BID", "W"}));
  importance.AddRow({Value(1), Value(10.0)});
  importance.AddRow({Value(2), Value(1.0)});
  importance.AddRow({Value(3), Value(1.0)});
  importance.AddRow({Value(4), Value(100.0)});
  importance.AddRow({Value(5), Value(1.0)});
  db.PutRelation(importance);

  const char* query =
      "answer(B,W) :- baskets(B,$1) AND baskets(B,$2) AND importance(B,W) "
      "AND $1 < $2";
  // SUM over W (head column 1) >= 50: only (beer,wine) via basket 4.
  QueryFlock f = Flock(query, {FilterAgg::kSum, CompareOp::kGe, 50, 1});
  auto result = EvaluateFlock(f, db);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->size(), 1u);
  EXPECT_TRUE(result->Contains({Value("beer"), Value("wine")}));

  // SUM >= 12: (beer,diapers) totals 12, qualifies too.
  QueryFlock f12 = Flock(query, {FilterAgg::kSum, CompareOp::kGe, 12, 1});
  auto r12 = EvaluateFlock(f12, db);
  ASSERT_TRUE(r12.ok());
  EXPECT_EQ(r12->size(), 2u);

  // Naive agrees.
  auto naive = NaiveEvaluateFlock(f12, db);
  ASSERT_TRUE(naive.ok());
  r12->SortRows();
  naive->SortRows();
  EXPECT_EQ(r12->rows(), naive->rows());
}

TEST(MonotoneFilterTest, NegativeWeightRejectedBySumGuard) {
  Database db = SmallBaskets();
  Relation importance("importance", Schema({"BID", "W"}));
  for (int b = 1; b <= 5; ++b) importance.AddRow({Value(b), Value(-1.0)});
  db.PutRelation(importance);
  QueryFlock f =
      Flock("answer(B,W) :- baskets(B,$1) AND importance(B,W)",
            {FilterAgg::kSum, CompareOp::kGe, 1, 1});
  auto result = EvaluateFlock(f, db);
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);

  FlockEvalOptions options;
  options.require_nonnegative_sum = false;
  EXPECT_TRUE(EvaluateFlock(f, db, options).ok());
}

TEST(MonotoneFilterTest, MaxAndMinFilters) {
  Database db = SmallBaskets();
  Relation importance("importance", Schema({"BID", "W"}));
  importance.AddRow({Value(1), Value(5.0)});
  importance.AddRow({Value(2), Value(7.0)});
  importance.AddRow({Value(3), Value(9.0)});
  importance.AddRow({Value(4), Value(2.0)});
  importance.AddRow({Value(5), Value(2.0)});
  db.PutRelation(importance);

  const char* query =
      "answer(B,W) :- baskets(B,$1) AND importance(B,W)";
  // MAX(W) >= 9 -> items in basket 3: beer, diapers.
  QueryFlock fmax = Flock(query, {FilterAgg::kMax, CompareOp::kGe, 9, 1});
  auto rmax = EvaluateFlock(fmax, db);
  ASSERT_TRUE(rmax.ok());
  EXPECT_EQ(rmax->size(), 2u);

  // MIN(W) <= 2 -> items in baskets 4 or 5: beer, wine.
  QueryFlock fmin = Flock(query, {FilterAgg::kMin, CompareOp::kLe, 2, 1});
  auto rmin = EvaluateFlock(fmin, db);
  ASSERT_TRUE(rmin.ok());
  EXPECT_EQ(rmin->size(), 2u);
  EXPECT_TRUE(rmin->Contains({Value("beer")}));
  EXPECT_TRUE(rmin->Contains({Value("wine")}));

  // Both agree with the oracle.
  for (const QueryFlock& f : {fmax, fmin}) {
    auto direct = EvaluateFlock(f, db);
    auto naive = NaiveEvaluateFlock(f, db);
    ASSERT_TRUE(direct.ok());
    ASSERT_TRUE(naive.ok());
    direct->SortRows();
    naive->SortRows();
    EXPECT_EQ(direct->rows(), naive->rows());
  }
}

// Property: on random basket databases the direct evaluator and the naive
// oracle agree for every support threshold.
class EvalEquivalenceProperty
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(EvalEquivalenceProperty, DirectMatchesNaive) {
  auto [seed, threshold] = GetParam();
  Rng rng(seed);
  Database db;
  Relation r("baskets", Schema({"BID", "Item"}));
  const char* items[] = {"a", "b", "c", "d"};
  for (int b = 0; b < 12; ++b) {
    for (const char* item : items) {
      if (rng.NextBernoulli(0.45)) r.AddRow({Value(b), Value(item)});
    }
  }
  r.Dedup();
  db.PutRelation(std::move(r));

  QueryFlock f =
      Flock("answer(B) :- baskets(B,$1) AND baskets(B,$2) AND $1 < $2",
            FilterCondition::MinSupport(threshold));
  auto direct = EvaluateFlock(f, db);
  auto naive = NaiveEvaluateFlock(f, db);
  ASSERT_TRUE(direct.ok());
  ASSERT_TRUE(naive.ok());
  direct->SortRows();
  naive->SortRows();
  EXPECT_EQ(direct->rows(), naive->rows());
}

INSTANTIATE_TEST_SUITE_P(RandomDatabases, EvalEquivalenceProperty,
                         ::testing::Combine(::testing::Range(1, 11),
                                            ::testing::Values(1, 2, 3, 5)));

}  // namespace
}  // namespace qf
