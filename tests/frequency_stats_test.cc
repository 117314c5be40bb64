// Tests for frequency profiles and the exact prefilter-survivor estimate
// they enable (the §4.4 "gathering of statistics" refinement).
#include <gtest/gtest.h>

#include "datalog/parser.h"
#include "common/rng.h"
#include "flocks/cq_eval.h"
#include "flocks/eval.h"
#include "optimizer/cost_model.h"
#include "optimizer/stats.h"
#include "workload/basket_gen.h"

namespace qf {
namespace {

TEST(FrequencyProfileTest, CountsAndMass) {
  FrequencyProfile profile;
  profile.counts = {10, 5, 5, 2, 1};  // descending
  EXPECT_EQ(profile.ValuesWithCountAtLeast(1), 5u);
  EXPECT_EQ(profile.ValuesWithCountAtLeast(2), 4u);
  EXPECT_EQ(profile.ValuesWithCountAtLeast(5), 3u);
  EXPECT_EQ(profile.ValuesWithCountAtLeast(6), 1u);
  EXPECT_EQ(profile.ValuesWithCountAtLeast(11), 0u);
  EXPECT_DOUBLE_EQ(profile.MassWithCountAtLeast(5), 20.0 / 23.0);
  EXPECT_DOUBLE_EQ(profile.MassWithCountAtLeast(1), 1.0);
  EXPECT_DOUBLE_EQ(profile.MassWithCountAtLeast(11), 0.0);
}

TEST(FrequencyProfileTest, EmptyProfile) {
  FrequencyProfile profile;
  EXPECT_EQ(profile.ValuesWithCountAtLeast(1), 0u);
  EXPECT_DOUBLE_EQ(profile.MassWithCountAtLeast(1), 0.0);
}

TEST(DetailedStatsTest, ProfilesMatchManualCounts) {
  Relation r("r", Schema({"K", "V"}));
  r.AddRow({Value("a"), Value(1)});
  r.AddRow({Value("a"), Value(2)});
  r.AddRow({Value("a"), Value(3)});
  r.AddRow({Value("b"), Value(1)});
  RelationStats stats = ComputeStats(r, /*detailed=*/true);
  ASSERT_TRUE(stats.has_profiles());
  EXPECT_EQ(stats.column_profiles[0].counts,
            (std::vector<std::size_t>{3, 1}));
  EXPECT_EQ(stats.column_profiles[1].counts,
            (std::vector<std::size_t>{2, 1, 1}));
  // Shallow stats agree on distinct counts.
  RelationStats shallow = ComputeStats(r);
  EXPECT_FALSE(shallow.has_profiles());
  EXPECT_EQ(shallow.column_distinct, stats.column_distinct);
}

TEST(DetailedStatsTest, ProfiledFilterEstimateIsExact) {
  BasketConfig config;
  config.n_baskets = 500;
  config.n_items = 120;
  config.avg_basket_size = 6;
  config.zipf_theta = 1.0;
  config.seed = 71;
  Database db;
  db.PutRelation(GenerateBaskets(config));

  CostModel profiled(DatabaseStats::Compute(db, /*detailed=*/true));
  ConjunctiveQuery sub = *ParseRule("answer(B) :- baskets(B,$1)");

  for (double threshold : {5.0, 15.0, 40.0}) {
    // Actual survivors: the frequent-items flock.
    auto flock = MakeFlock("answer(B) :- baskets(B,$1)",
                           FilterCondition::MinSupport(threshold));
    ASSERT_TRUE(flock.ok());
    auto actual = EvaluateFlock(*flock, db);
    ASSERT_TRUE(actual.ok());
    CostModel::FilterEstimate est = profiled.EstimateFilter(sub, threshold);
    EXPECT_DOUBLE_EQ(est.survivors, static_cast<double>(actual->size()))
        << "threshold " << threshold;
  }
}

TEST(DetailedStatsTest, CoarseEstimateRemainsApproximate) {
  BasketConfig config;
  config.n_baskets = 500;
  config.n_items = 120;
  config.seed = 71;
  Database db;
  db.PutRelation(GenerateBaskets(config));
  CostModel coarse(DatabaseStats::Compute(db));  // no profiles
  ConjunctiveQuery sub = *ParseRule("answer(B) :- baskets(B,$1)");
  CostModel::FilterEstimate est = coarse.EstimateFilter(sub, 15);
  // Sane, bounded — but not asserted exact.
  EXPECT_GT(est.assignments, 0);
  EXPECT_GE(est.survival_fraction, 0);
  EXPECT_LE(est.survival_fraction, 1);
}

// The coarse join estimator's accuracy contract on uniform independent
// data: within a small constant factor of the truth (the assumptions it
// was derived under). Not asserted on skewed data, where only the
// profiled path is reliable.
class EstimateAccuracyProperty : public ::testing::TestWithParam<int> {};

TEST_P(EstimateAccuracyProperty, JoinEstimateWithinFactorOnUniformData) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  Database db;
  Relation r("r", Schema({"A", "B"}));
  Relation s("s", Schema({"B", "C"}));
  for (int i = 0; i < 2000; ++i) {
    r.AddRow({Value(static_cast<std::int64_t>(rng.NextBelow(200))),
              Value(static_cast<std::int64_t>(rng.NextBelow(100)))});
    s.AddRow({Value(static_cast<std::int64_t>(rng.NextBelow(100))),
              Value(static_cast<std::int64_t>(rng.NextBelow(200)))});
  }
  r.Dedup();
  s.Dedup();
  db.PutRelation(r);
  db.PutRelation(s);

  CostModel model(DatabaseStats::Compute(db));
  ConjunctiveQuery cq = *ParseRule("answer(A) :- r(A,B) AND s(B,C)");
  double estimated = model.EstimateCq(cq).result_rows;

  PredicateResolver resolver(db);
  auto actual = EvaluateConjunctiveBindings(cq, resolver, {"A", "B", "C"});
  ASSERT_TRUE(actual.ok());
  double truth = static_cast<double>(actual->size());
  EXPECT_GT(estimated, truth / 3) << "estimate " << estimated;
  EXPECT_LT(estimated, truth * 3) << "estimate " << estimated;
}

INSTANTIATE_TEST_SUITE_P(Seeds, EstimateAccuracyProperty,
                         ::testing::Range(1, 7));

TEST(DetailedStatsTest, ProfiledPathIgnoredForComplexSubqueries) {
  // Two-subgoal subqueries fall back to the coarse model even with
  // profiles present (no crash, sane outputs).
  Database db;
  Relation r("p", Schema({"A", "B"}));
  r.AddRow({Value(1), Value(2)});
  db.PutRelation(r);
  CostModel model(DatabaseStats::Compute(db, true));
  ConjunctiveQuery cq = *ParseRule("answer(A) :- p(A,$x) AND p(A,$y)");
  CostModel::FilterEstimate est = model.EstimateFilter(cq, 2);
  EXPECT_GE(est.survivors, 0);
}

}  // namespace
}  // namespace qf
