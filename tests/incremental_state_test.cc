// Unit tests for the incremental-evaluation building blocks: the
// AppendRelation delta-batch contract (relational/relation.h), the
// Database generation counter, and IncrementalFlockState's
// (flocks/incremental_eval.h) exactness against the direct evaluator
// over the same rows.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "flocks/eval.h"
#include "flocks/flock.h"
#include "flocks/incremental_eval.h"
#include "relational/database.h"
#include "relational/relation.h"

namespace qf {
namespace {

QueryFlock Flock(const char* text, FilterCondition filter) {
  auto f = MakeFlock(text, filter);
  EXPECT_TRUE(f.ok()) << f.status().ToString();
  return *f;
}

// --- AppendRelation ---

Relation Rel(const char* name, std::vector<std::vector<int>> rows) {
  Relation r(name, Schema({"A", "B"}));
  for (const auto& row : rows) r.AddRow({Value(row[0]), Value(row[1])});
  return r;
}

TEST(AppendRelationTest, DedupAndPrefixStability) {
  Relation base = Rel("t", {{1, 1}, {2, 2}});
  // Delta repeats a base row, contains an internal duplicate, and adds
  // two genuinely new rows.
  Relation delta = Rel("ignored", {{2, 2}, {3, 3}, {3, 3}, {4, 4}});
  Result<Relation> out = AppendRelation(base, delta);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out->name(), "t");
  EXPECT_EQ(out->size(), 4u);
  // Prefix stability: the leading base.size() rows are bit-identical.
  for (std::size_t i = 0; i < base.size(); ++i) {
    EXPECT_EQ(out->rows()[i], base.rows()[i]) << "row " << i;
  }
  EXPECT_EQ(out->base_rows(), base.size());
  EXPECT_EQ(out->epoch(), base.epoch() + 1);
  // The delta slice holds exactly the new rows, in first-occurrence order.
  EXPECT_EQ(out->rows()[2], (Tuple{Value(3), Value(3)}));
  EXPECT_EQ(out->rows()[3], (Tuple{Value(4), Value(4)}));
}

TEST(AppendRelationTest, EpochChainsAcrossAppends) {
  Relation r0 = Rel("t", {{1, 1}});
  Result<Relation> r1 = AppendRelation(r0, Rel("d", {{2, 2}}));
  ASSERT_TRUE(r1.ok());
  Result<Relation> r2 = AppendRelation(*r1, Rel("d", {{3, 3}}));
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r0.epoch(), 0u);
  EXPECT_EQ(r1->epoch(), 1u);
  EXPECT_EQ(r2->epoch(), 2u);
  EXPECT_EQ(r2->base_rows(), 2u);
  EXPECT_EQ(r2->size(), 3u);
}

TEST(AppendRelationTest, AllDuplicateDeltaIsAnEmptyBatch) {
  Relation base = Rel("t", {{1, 1}, {2, 2}});
  Result<Relation> out = AppendRelation(base, Rel("d", {{1, 1}, {2, 2}}));
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->size(), base.size());
  EXPECT_EQ(out->base_rows(), base.size());
  EXPECT_EQ(out->epoch(), 1u);  // an empty batch is still a batch
}

TEST(AppendRelationTest, SchemaMismatchRejected) {
  Relation base = Rel("t", {{1, 1}});
  Relation delta("d", Schema({"A", "C"}));
  delta.AddRow({Value(2), Value(2)});
  Result<Relation> out = AppendRelation(base, delta);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(out.status().message().find("append schema mismatch"),
            std::string::npos);
}

TEST(DatabaseTest, GenerationBumpsOnEveryMutation) {
  Database db;
  std::uint64_t g0 = db.generation();
  db.PutRelation(Rel("t", {{1, 1}}));
  EXPECT_GT(db.generation(), g0);
  std::uint64_t g1 = db.generation();
  std::shared_ptr<const Relation> h1 = db.GetShared("t");
  // Re-reading does not bump; the handle is stable.
  EXPECT_EQ(db.generation(), g1);
  EXPECT_EQ(db.GetShared("t"), h1);
  db.PutRelation(Rel("t", {{2, 2}}));
  EXPECT_GT(db.generation(), g1);
  EXPECT_NE(db.GetShared("t"), h1);
}

// --- IncrementalFlockState ---

Database SmallBaskets() {
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

// Answer rows in the state's schema (params then canonical heads) for the
// single-disjunct pairs flock — what the evaluator feeds Absorb.
std::vector<Tuple> PairAnswers(const Database& db) {
  std::vector<Tuple> rows;
  const Relation& b = db.Get("baskets");
  for (const Tuple& x : b.rows()) {
    for (const Tuple& y : b.rows()) {
      if (x[0] == y[0] && x[1] < y[1]) {
        rows.push_back({x[1], y[1], x[0]});  // $1, $2, _h0=B
      }
    }
  }
  return rows;
}

TEST(IncrementalFlockStateTest, ServeMatchesDirectEvaluator) {
  Database db = SmallBaskets();
  QueryFlock f =
      Flock("answer(B) :- baskets(B,$1) AND baskets(B,$2) AND $1 < $2",
            FilterCondition::MinSupport(2));
  IncrementalFlockState st("pairs", f);
  for (const Tuple& row : PairAnswers(db)) ASSERT_TRUE(st.Absorb(row));
  ASSERT_TRUE(st.Flush().ok());

  Result<Relation> direct = EvaluateFlock(f, db);
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();
  Relation served = st.Serve(f.filter);
  EXPECT_EQ(served.name(), direct->name());
  EXPECT_EQ(served.schema().columns(), direct->schema().columns());
  EXPECT_EQ(served.rows(), direct->rows());
  EXPECT_EQ(served.size(), 1u);  // only (beer, diapers) has support >= 2
}

TEST(IncrementalFlockStateTest, AbsorbDeduplicates) {
  Database db = SmallBaskets();
  QueryFlock f =
      Flock("answer(B) :- baskets(B,$1) AND baskets(B,$2) AND $1 < $2",
            FilterCondition::MinSupport(2));
  IncrementalFlockState st("pairs", f);
  Tuple row{Value("beer"), Value("diapers"), Value(1)};
  EXPECT_TRUE(st.Absorb(row));
  EXPECT_TRUE(st.Absorb(row));
  ASSERT_TRUE(st.Flush().ok());
  EXPECT_EQ(st.answer_rows(), 1u);
  EXPECT_EQ(st.group_count(), 1u);
}

TEST(IncrementalFlockStateTest, CompatibilityMatrix) {
  const char* pairs =
      "answer(B) :- baskets(B,$1) AND baskets(B,$2) AND $1 < $2";
  IncrementalFlockState st("pairs",
                           Flock(pairs, FilterCondition::MinSupport(5)));

  // Any monotone filter over the same query, aggregate and column is
  // served: the table holds every group's exact COUNT.
  EXPECT_TRUE(st.Serves(Flock(pairs, FilterCondition::MinSupport(5))));
  EXPECT_TRUE(st.Serves(Flock(pairs, FilterCondition::MinSupport(8))));
  EXPECT_TRUE(st.Serves(Flock(pairs, FilterCondition::MinSupport(3))));
  EXPECT_TRUE(
      st.Serves(Flock(pairs, {FilterAgg::kCount, CompareOp::kGt, 5, 0})));
  // A non-monotone filter, another aggregate or another query: not.
  EXPECT_FALSE(
      st.Serves(Flock(pairs, {FilterAgg::kCount, CompareOp::kLe, 5, 0})));
  EXPECT_FALSE(
      st.Serves(Flock(pairs, {FilterAgg::kSum, CompareOp::kGe, 5, 0})));
  EXPECT_FALSE(st.Serves(
      Flock("answer(B) :- baskets(B,$1)", FilterCondition::MinSupport(5))));
}

TEST(IncrementalFlockStateTest, UpperBoundFilterTightensDownward) {
  // An upper bound on MIN serves at any threshold, tightened downward or
  // loosened upward; MAX or another aggregated column does not.
  const char* weights = "answer(B,W) :- sales(B,$1,W)";
  IncrementalFlockState st(
      "mins", Flock(weights, {FilterAgg::kMin, CompareOp::kLe, 10, 1}));
  EXPECT_TRUE(
      st.Serves(Flock(weights, {FilterAgg::kMin, CompareOp::kLe, 5, 1})));
  EXPECT_TRUE(
      st.Serves(Flock(weights, {FilterAgg::kMin, CompareOp::kLt, 20, 1})));
  EXPECT_FALSE(
      st.Serves(Flock(weights, {FilterAgg::kMax, CompareOp::kGe, 5, 1})));
  EXPECT_FALSE(
      st.Serves(Flock(weights, {FilterAgg::kMin, CompareOp::kLe, 5, 0})));
}

TEST(IncrementalFlockStateTest, TightenedServeMatchesDirect) {
  Database db = SmallBaskets();
  QueryFlock built =
      Flock("answer(B) :- baskets(B,$1) AND baskets(B,$2) AND $1 < $2",
            FilterCondition::MinSupport(1));
  IncrementalFlockState st("pairs", built);
  for (const Tuple& row : PairAnswers(db)) ASSERT_TRUE(st.Absorb(row));
  ASSERT_TRUE(st.Flush().ok());
  for (std::int64_t t = 1; t <= 4; ++t) {
    QueryFlock tight =
        Flock("answer(B) :- baskets(B,$1) AND baskets(B,$2) AND $1 < $2",
              FilterCondition::MinSupport(t));
    ASSERT_TRUE(st.Serves(tight));
    Result<Relation> direct = EvaluateFlock(tight, db);
    ASSERT_TRUE(direct.ok());
    EXPECT_EQ(st.Serve(tight.filter).rows(), direct->rows())
        << "threshold " << t;
  }
}

TEST(IncrementalFlockStateTest, DescribeListsCountersAndMarks) {
  Database db = SmallBaskets();
  QueryFlock f =
      Flock("answer(B) :- baskets(B,$1) AND baskets(B,$2) AND $1 < $2",
            FilterCondition::MinSupport(2));
  IncrementalFlockState st("pairs", f);
  for (const Tuple& row : PairAnswers(db)) ASSERT_TRUE(st.Absorb(row));
  ASSERT_TRUE(st.Flush().ok());
  st.marks().push_back(IncrementalFlockState::RelationMark{
      "baskets", db.GetShared("baskets"), db.Get("baskets").size(), false});
  st.full_builds = 1;
  std::string d = st.Describe();
  EXPECT_NE(d.find("flock pairs:"), std::string::npos);
  EXPECT_NE(d.find("built filter: COUNT"), std::string::npos);
  EXPECT_NE(d.find("decisions: builds=1 deltas=0 cached=0"),
            std::string::npos);
  EXPECT_NE(d.find("base baskets: 9 rows"), std::string::npos);
  EXPECT_GT(st.ApproxBytes(), 0u);
}

}  // namespace
}  // namespace qf
