// Tests for dynamic filter selection (§4.4): correctness against the
// static evaluator on fixtures and random data, plus decision-log
// behavior under different aggressiveness settings.
#include <gtest/gtest.h>

#include <map>

#include "flocks/eval.h"
#include "optimizer/dynamic.h"
#include "optimizer/join_order.h"
#include "workload/basket_gen.h"
#include "workload/graph_gen.h"
#include "workload/medical_gen.h"

namespace qf {
namespace {

QueryFlock Flock(const char* text, FilterCondition filter) {
  auto f = MakeFlock(text, filter);
  EXPECT_TRUE(f.ok()) << f.status().ToString();
  return *f;
}

void ExpectSame(Result<Relation> a, Result<Relation> b) {
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  a->SortRows();
  b->SortRows();
  EXPECT_EQ(a->rows(), b->rows());
}

TEST(DynamicTest, MatchesDirectOnBaskets) {
  Database db;
  db.PutRelation(GenerateBaskets({.n_baskets = 300, .n_items = 50,
                                  .avg_basket_size = 5, .zipf_theta = 1.0,
                                  .seed = 21}));
  QueryFlock flock =
      Flock("answer(B) :- baskets(B,$1) AND baskets(B,$2) AND $1 < $2",
            FilterCondition::MinSupport(6));
  DynamicLog log;
  ExpectSame(EvaluateFlock(flock, db),
             DynamicEvaluate(flock, db, {}, {}, &log));
  EXPECT_FALSE(log.decisions.empty());
}

TEST(DynamicTest, MatchesDirectOnMedical) {
  MedicalConfig config;
  config.n_patients = 300;
  config.n_symptoms = 80;
  config.symptom_theta = 1.2;
  config.seed = 22;
  Database db = GenerateMedical(config);
  QueryFlock flock = Flock(
      "answer(P) :- exhibits(P,$s) AND treatments(P,$m) AND "
      "diagnoses(P,D) AND NOT causes(D,$s)",
      FilterCondition::MinSupport(5));
  ExpectSame(EvaluateFlock(flock, db), DynamicEvaluate(flock, db));
}

TEST(DynamicTest, MatchesDirectWithChosenJoinOrder) {
  MedicalConfig config;
  config.n_patients = 250;
  config.seed = 23;
  Database db = GenerateMedical(config);
  CostModel model(DatabaseStats::Compute(db));
  QueryFlock flock = Flock(
      "answer(P) :- exhibits(P,$s) AND treatments(P,$m) AND "
      "diagnoses(P,D) AND NOT causes(D,$s)",
      FilterCondition::MinSupport(4));
  DynamicOptions options;
  options.join_order =
      ChooseJoinOrder(flock.query.disjuncts.front(), model);
  ExpectSame(EvaluateFlock(flock, db),
             DynamicEvaluate(flock, db, options));
}

TEST(DynamicTest, ZeroAggressivenessNeverFilters) {
  Database db;
  db.PutRelation(GenerateBaskets({.n_baskets = 100, .n_items = 20,
                                  .avg_basket_size = 4, .zipf_theta = 0.8,
                                  .seed = 24}));
  QueryFlock flock =
      Flock("answer(B) :- baskets(B,$1) AND baskets(B,$2) AND $1 < $2",
            FilterCondition::MinSupport(4));
  DynamicOptions options;
  options.aggressiveness = 0;
  options.improvement_factor = 0;
  DynamicLog log;
  ExpectSame(EvaluateFlock(flock, db),
             DynamicEvaluate(flock, db, options, {}, &log));
  EXPECT_EQ(log.filters_applied, 0u);
  for (const DynamicDecision& d : log.decisions) EXPECT_FALSE(d.filtered);
}

TEST(DynamicTest, HighAggressivenessFiltersAndStaysCorrect) {
  Database db;
  db.PutRelation(GenerateBaskets({.n_baskets = 400, .n_items = 120,
                                  .avg_basket_size = 5, .zipf_theta = 1.2,
                                  .seed = 25}));
  QueryFlock flock =
      Flock("answer(B) :- baskets(B,$1) AND baskets(B,$2) AND $1 < $2",
            FilterCondition::MinSupport(10));
  DynamicOptions options;
  options.aggressiveness = 100;  // filter at every opportunity
  options.improvement_factor = 1.0;
  DynamicLog log;
  ExpectSame(EvaluateFlock(flock, db),
             DynamicEvaluate(flock, db, options, {}, &log));
  EXPECT_GT(log.filters_applied, 0u);
}

TEST(DynamicTest, FilteringShrinksIntermediates) {
  // On skewed data with a selective threshold, the dynamic evaluator's
  // peak intermediate should not exceed the unfiltered evaluator's.
  Database db;
  db.PutRelation(GenerateBaskets({.n_baskets = 500, .n_items = 200,
                                  .avg_basket_size = 6, .zipf_theta = 1.2,
                                  .seed = 26}));
  QueryFlock flock =
      Flock("answer(B) :- baskets(B,$1) AND baskets(B,$2) AND $1 < $2",
            FilterCondition::MinSupport(15));
  FlockEvalInfo direct_info;
  auto direct = EvaluateFlock(flock, db, {}, {}, nullptr, &direct_info);
  ASSERT_TRUE(direct.ok());
  DynamicLog log;
  auto dynamic = DynamicEvaluate(flock, db, {}, {}, &log);
  ASSERT_TRUE(dynamic.ok());
  EXPECT_GT(log.filters_applied, 0u);
  EXPECT_LT(log.peak_rows, direct_info.peak_rows);
}

TEST(DynamicTest, DecisionLogRecordsRatios) {
  Database db;
  db.PutRelation(GenerateBaskets({.n_baskets = 100, .n_items = 30,
                                  .avg_basket_size = 4, .zipf_theta = 1.0,
                                  .seed = 27}));
  QueryFlock flock =
      Flock("answer(B) :- baskets(B,$1) AND baskets(B,$2) AND $1 < $2",
            FilterCondition::MinSupport(5));
  DynamicLog log;
  auto result = DynamicEvaluate(flock, db, {}, {}, &log);
  ASSERT_TRUE(result.ok());
  for (const DynamicDecision& d : log.decisions) {
    EXPECT_GT(d.ratio, 0);
    EXPECT_FALSE(d.parameters.empty());
    EXPECT_FALSE(d.at.empty());
    if (d.filtered) {
      EXPECT_LE(d.rows_after, d.rows_before);
    }
  }
}

TEST(DynamicTest, GraphPathQueryCorrect) {
  Database db;
  db.PutRelation(GenerateGraph({.n_nodes = 120, .avg_out_degree = 3,
                                .target_theta = 0.9, .seed = 28}));
  QueryFlock flock =
      Flock("answer(X) :- arc($1,X) AND arc(X,Y1) AND arc(Y1,Y2)",
            FilterCondition::MinSupport(2));
  ExpectSame(EvaluateFlock(flock, db), DynamicEvaluate(flock, db));
}

TEST(DynamicTest, RejectsUnionFlocks) {
  Database db;
  db.PutRelation(Relation("p", Schema({"B", "I"})));
  db.PutRelation(Relation("q", Schema({"B", "I"})));
  QueryFlock flock = Flock("answer(B) :- p(B,$1)\nanswer(B) :- q(B,$1)",
                           FilterCondition::MinSupport(2));
  EXPECT_EQ(DynamicEvaluate(flock, db).status().code(),
            StatusCode::kUnimplemented);
}

TEST(DynamicTest, RejectsNonSupportFilter) {
  Database db;
  db.PutRelation(Relation("p", Schema({"B", "I", "W"})));
  QueryFlock flock = Flock("answer(B,W) :- p(B,$1,W)",
                           {FilterAgg::kSum, CompareOp::kGe, 5, 1});
  EXPECT_EQ(DynamicEvaluate(flock, db).status().code(),
            StatusCode::kFailedPrecondition);
}

// --- §4.4 decision-lattice tests: the two-stage rule (ratio gate, then
// removed-mass check) and the "seen" baseline it leaves behind. The
// fixture is hand-built so every ratio is exact:
//
//   p(B,I): item a in baskets b1..b8 (8 rows), items c,d,e in baskets
//           b9,b10 (6 rows) — 14 tuples over 4 items, leaf ratio 3.5;
//   q(B):   chosen per test to reshape the post-join distribution.
//
// With threshold 4, aggressiveness 1: the leaf passes the ratio gate
// (3.5 < 4) but filtering removes only 6/14 = 0.43 of the mass, so
// min_removed_fraction = 0.5 declines it — a *considered* opportunity
// that must record a clamped baseline (max(3.5, 4) = 4), not the raw
// 3.5, or the re-consideration bar after the join would be
// 0.5 * 3.5 = 1.75 instead of 0.5 * 4 = 2.
Database LatticeDb(std::vector<std::string> q_baskets) {
  Relation p("p", Schema({"B", "I"}));
  for (int i = 1; i <= 8; ++i) {
    p.AddRow({Value("b" + std::to_string(i)), Value("a")});
  }
  for (const char* b : {"b9", "b10"}) {
    for (const char* item : {"c", "d", "e"}) {
      p.AddRow({Value(b), Value(item)});
    }
  }
  Relation q("q", Schema({"B"}));
  for (const std::string& b : q_baskets) q.AddRow({Value(b)});
  Database db;
  db.PutRelation(std::move(p));
  db.PutRelation(std::move(q));
  return db;
}

DynamicOptions LatticeOptions() {
  DynamicOptions options;
  options.aggressiveness = 1.0;
  options.improvement_factor = 0.5;
  options.min_removed_fraction = 0.5;
  return options;
}

const DynamicDecision* FindDecision(const DynamicLog& log,
                                    const std::string& at_prefix) {
  for (const DynamicDecision& d : log.decisions) {
    if (d.at.rfind(at_prefix, 0) == 0) return &d;
  }
  return nullptr;
}

TEST(DynamicLatticeTest, MassDeclinedOpportunityIsConsideredNotFiltered) {
  Database db = LatticeDb({"b1", "b2", "b3", "b4", "b5", "b6", "b7", "b8",
                           "b9", "b10"});
  QueryFlock flock = Flock("answer(B) :- p(B,$1) AND q(B)",
                           FilterCondition::MinSupport(4));
  DynamicLog log;
  ExpectSame(EvaluateFlock(flock, db),
             DynamicEvaluate(flock, db, LatticeOptions(), {}, &log));
  const DynamicDecision* leaf = FindDecision(log, "leaf p");
  ASSERT_NE(leaf, nullptr);
  EXPECT_NEAR(leaf->ratio, 3.5, 1e-9);
  EXPECT_TRUE(leaf->considered);   // ratio gate passed (3.5 < 1.0 * 4)
  EXPECT_FALSE(leaf->filtered);    // but only 6/14 of the mass would go
  EXPECT_NEAR(leaf->removed_fraction, 6.0 / 14.0, 1e-9);
  EXPECT_EQ(leaf->rows_before, leaf->rows_after);
}

TEST(DynamicLatticeTest, DeclinedBaselineIsClampedSoLaterJoinCanFilter) {
  // q keeps one basket of item a and both c/d/e baskets: after the join
  // the ratio is 7/4 = 1.75, below 0.5 * clamp(3.5, 4) = 2 — so the set
  // is re-considered, and this time every group sits below support, so
  // the whole mass goes and the filter applies. With the raw 3.5
  // baseline the bar would be 1.75 < 1.75 = false and the §4.4 step
  // would be locked out by its own earlier decline.
  Database db = LatticeDb({"b1", "b9", "b10"});
  QueryFlock flock = Flock("answer(B) :- p(B,$1) AND q(B)",
                           FilterCondition::MinSupport(4));
  DynamicLog log;
  ExpectSame(EvaluateFlock(flock, db),
             DynamicEvaluate(flock, db, LatticeOptions(), {}, &log));
  const DynamicDecision* leaf = FindDecision(log, "leaf p");
  ASSERT_NE(leaf, nullptr);
  EXPECT_TRUE(leaf->considered);
  EXPECT_FALSE(leaf->filtered);
  const DynamicDecision* joined = FindDecision(log, "after join");
  ASSERT_NE(joined, nullptr);
  EXPECT_NEAR(joined->ratio, 7.0 / 4.0, 1e-9);
  EXPECT_TRUE(joined->considered);
  EXPECT_TRUE(joined->filtered);
  EXPECT_NEAR(joined->removed_fraction, 1.0, 1e-9);
  EXPECT_EQ(joined->rows_after, 0u);
  EXPECT_EQ(log.filters_applied, 1u);
}

TEST(DynamicLatticeTest, UnimprovedRatioIsNotReconsidered) {
  // q keeps everything: the post-join ratio is still 3.5, nowhere near
  // 0.5 * 4 = 2, so the seen set is left alone — considered exactly once.
  Database db = LatticeDb({"b1", "b2", "b3", "b4", "b5", "b6", "b7", "b8",
                           "b9", "b10"});
  QueryFlock flock = Flock("answer(B) :- p(B,$1) AND q(B)",
                           FilterCondition::MinSupport(4));
  DynamicLog log;
  ASSERT_TRUE(DynamicEvaluate(flock, db, LatticeOptions(), {}, &log).ok());
  const DynamicDecision* joined = FindDecision(log, "after join");
  ASSERT_NE(joined, nullptr);
  EXPECT_NEAR(joined->ratio, 3.5, 1e-9);
  EXPECT_FALSE(joined->considered);
  EXPECT_FALSE(joined->filtered);
  EXPECT_EQ(joined->removed_fraction, 0.0);
  EXPECT_EQ(log.filters_applied, 0u);
}

TEST(DynamicLatticeTest, GateFailedOpportunityRecordsNothingExtra) {
  // aggressiveness 0.5 puts the gate at 2: the leaf's 3.5 fails it, so
  // the opportunity is not considered and removed_fraction stays 0 (the
  // group-mass pass never ran).
  Database db = LatticeDb({"b1", "b9", "b10"});
  QueryFlock flock = Flock("answer(B) :- p(B,$1) AND q(B)",
                           FilterCondition::MinSupport(4));
  DynamicOptions options = LatticeOptions();
  options.aggressiveness = 0.5;
  DynamicLog log;
  ASSERT_TRUE(DynamicEvaluate(flock, db, options, {}, &log).ok());
  const DynamicDecision* leaf = FindDecision(log, "leaf p");
  ASSERT_NE(leaf, nullptr);
  EXPECT_FALSE(leaf->considered);
  EXPECT_FALSE(leaf->filtered);
  EXPECT_EQ(leaf->removed_fraction, 0.0);
}

TEST(DynamicTest, ThreadedScanMatchesSerial) {
  Database db;
  db.PutRelation(GenerateBaskets({.n_baskets = 300, .n_items = 50,
                                  .avg_basket_size = 5, .zipf_theta = 1.0,
                                  .seed = 29}));
  QueryFlock flock =
      Flock("answer(B) :- baskets(B,$1) AND baskets(B,$2) AND $1 < $2",
            FilterCondition::MinSupport(6));
  ExpectSame(DynamicEvaluate(flock, db),
             DynamicEvaluate(flock, db, {}, {.threads = 4}));
}

// The fold joins at env.threads, and every join, scan and filter keeps
// the one-piece row order, so the §4.4 decisions see the same relations
// at every thread count: same answers, same decision log.
TEST(DynamicTest, DecisionLogThreadInvariant) {
  Database db;
  Relation baskets = GenerateBaskets({.n_baskets = 300, .n_items = 60,
                                      .avg_basket_size = 5, .zipf_theta = 1.0,
                                      .seed = 30});
  std::map<Value, int> item_baskets;
  for (const Tuple& row : baskets.rows()) ++item_baskets[row[1]];
  Relation rare("rare", Schema({"I"}));
  for (const auto& [item, n] : item_baskets) {
    if (n < 8) rare.AddRow({item});
  }
  ASSERT_FALSE(rare.empty());
  db.PutRelation(std::move(baskets));
  db.PutRelation(std::move(rare));
  QueryFlock flock = Flock(
      "answer(B) :- baskets(B,$1) AND baskets(B,$2) AND baskets(B,I) AND "
      "$1 < $2 AND NOT rare(I)",
      FilterCondition::MinSupport(6));
  DynamicOptions options;
  options.aggressiveness = 4.0;

  DynamicLog serial_log;
  Result<Relation> serial =
      DynamicEvaluate(flock, db, options, {.threads = 1}, &serial_log);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  ExpectSame(EvaluateFlock(flock, db), serial);
  EXPECT_GT(serial_log.filters_applied, 0u);
  for (unsigned threads : {0u, 4u}) {
    DynamicLog log;
    Result<Relation> result =
        DynamicEvaluate(flock, db, options, {.threads = threads}, &log);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->rows(), serial->rows()) << "threads " << threads;
    EXPECT_EQ(log.filters_applied, serial_log.filters_applied);
    EXPECT_EQ(log.peak_rows, serial_log.peak_rows);
    ASSERT_EQ(log.decisions.size(), serial_log.decisions.size());
    for (std::size_t i = 0; i < log.decisions.size(); ++i) {
      const DynamicDecision& d = log.decisions[i];
      const DynamicDecision& want = serial_log.decisions[i];
      EXPECT_EQ(d.at, want.at) << "threads " << threads << " decision " << i;
      EXPECT_EQ(d.parameters, want.parameters) << d.at;
      EXPECT_EQ(d.ratio, want.ratio) << d.at;
      EXPECT_EQ(d.considered, want.considered) << d.at;
      EXPECT_EQ(d.filtered, want.filtered) << d.at;
      EXPECT_EQ(d.removed_fraction, want.removed_fraction) << d.at;
      EXPECT_EQ(d.rows_before, want.rows_before) << d.at;
      EXPECT_EQ(d.rows_after, want.rows_after) << d.at;
    }
  }
}

// Property: dynamic evaluation agrees with the direct evaluator across
// random seeds, thresholds, and aggressiveness settings.
class DynamicEquivalenceProperty
    : public ::testing::TestWithParam<std::tuple<int, int, double>> {};

TEST_P(DynamicEquivalenceProperty, AgreesWithDirect) {
  auto [seed, threshold, aggressiveness] = GetParam();
  Database db;
  db.PutRelation(GenerateBaskets(
      {.n_baskets = 200, .n_items = 40, .avg_basket_size = 5,
       .zipf_theta = 1.0, .seed = static_cast<std::uint64_t>(seed)}));
  QueryFlock flock =
      Flock("answer(B) :- baskets(B,$1) AND baskets(B,$2) AND $1 < $2",
            FilterCondition::MinSupport(threshold));
  DynamicOptions options;
  options.aggressiveness = aggressiveness;
  ExpectSame(EvaluateFlock(flock, db),
             DynamicEvaluate(flock, db, options));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DynamicEquivalenceProperty,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 5),
                       ::testing::Values(2, 5, 10),
                       ::testing::Values(0.5, 1.0, 4.0)));

}  // namespace
}  // namespace qf
