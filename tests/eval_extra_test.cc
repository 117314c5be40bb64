// Additional evaluator coverage: constants in flock queries (§2.1's
// "mention beer explicitly"), multi-variable heads, zero-arity guards,
// COUNT-distinct semantics, trace rendering, and interactions between
// join orders, negation, and extra predicates.
#include <gtest/gtest.h>

#include "flocks/eval.h"
#include "flocks/naive_eval.h"
#include "optimizer/dynamic.h"
#include "relational/ops.h"

namespace qf {
namespace {

QueryFlock Flock(const char* text, FilterCondition filter) {
  auto f = MakeFlock(text, filter);
  EXPECT_TRUE(f.ok()) << f.status().ToString();
  return *f;
}

Database BeerDb() {
  Database db;
  Relation r("baskets", Schema({"BID", "Item"}));
  for (int b = 1; b <= 4; ++b) {
    r.AddRow({Value(b), Value("beer")});
    r.AddRow({Value(b), Value("diapers")});
  }
  r.AddRow({Value(5), Value("beer")});
  r.AddRow({Value(5), Value("wine")});
  r.AddRow({Value(6), Value("wine")});
  r.AddRow({Value(6), Value("diapers")});
  db.PutRelation(std::move(r));
  return db;
}

TEST(EvalExtraTest, ConstantInQueryPinsOneSide) {
  // §2.1: "we would simply ... mention beer explicitly in the query flock,
  // should we require one of the items to be beer."
  Database db = BeerDb();
  QueryFlock f =
      Flock("answer(B) :- baskets(B,'beer') AND baskets(B,$1) AND $1 != "
            "'beer'",
            FilterCondition::MinSupport(2));
  auto result = EvaluateFlock(f, db);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Items co-occurring with beer in >= 2 baskets: diapers (4).
  ASSERT_EQ(result->size(), 1u);
  EXPECT_TRUE(result->Contains({Value("diapers")}));

  auto naive = NaiveEvaluateFlock(f, db);
  ASSERT_TRUE(naive.ok());
  EXPECT_EQ(naive->size(), result->size());
}

TEST(EvalExtraTest, MultiVariableHeadCountsDistinctTuples) {
  // Head (B, Item2): the support counts distinct (basket, item) pairs.
  Database db = BeerDb();
  Relation pairs("pairs_seen", Schema({"BID", "I"}));
  db.PutRelation(pairs);
  QueryFlock f = Flock(
      "answer(B,I) :- baskets(B,$1) AND baskets(B,I) AND $1 != 'nothing'",
      FilterCondition::MinSupport(9));
  auto direct = EvaluateFlock(f, db);
  auto naive = NaiveEvaluateFlock(f, db);
  ASSERT_TRUE(direct.ok());
  ASSERT_TRUE(naive.ok());
  direct->SortRows();
  naive->SortRows();
  EXPECT_EQ(direct->rows(), naive->rows());
  // beer appears in 5 baskets, each with 2 items -> 10 distinct (B,I).
  EXPECT_TRUE(direct->Contains({Value("beer")}));
}

TEST(EvalExtraTest, ZeroArityGuardPredicate) {
  Database db = BeerDb();
  Relation flag_on("flag", Schema(std::vector<std::string>{}));
  flag_on.Add(Tuple{});
  db.PutRelation(flag_on);
  QueryFlock with_guard = Flock("answer(B) :- baskets(B,$1) AND flag()",
                                FilterCondition::MinSupport(4));
  auto result = EvaluateFlock(with_guard, db);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->size(), 2u);  // beer (5), diapers (5)

  // Empty guard kills everything.
  Relation flag_off("flag", Schema(std::vector<std::string>{}));
  db.PutRelation(flag_off);
  auto none = EvaluateFlock(with_guard, db);
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none->empty());
}

TEST(EvalExtraTest, SetSemanticsPreventDoubleCounting) {
  // §2.3: "some of our claims would not hold for bag semantics". A basket
  // listing beer twice must count once.
  Database db;
  Relation r("baskets", Schema({"BID", "Item"}));
  r.AddRow({Value(1), Value("beer")});
  r.AddRow({Value(1), Value("beer")});  // duplicate row
  r.AddRow({Value(2), Value("beer")});
  r.Dedup();  // set semantics contract on base data
  db.PutRelation(std::move(r));
  QueryFlock f =
      Flock("answer(B) :- baskets(B,$1)", FilterCondition::MinSupport(2));
  auto result = EvaluateFlock(f, db);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->size(), 1u);  // beer in exactly 2 distinct baskets
}

TEST(EvalExtraTest, DynamicTraceRenders) {
  Database db = BeerDb();
  QueryFlock f =
      Flock("answer(B) :- baskets(B,$1) AND baskets(B,$2) AND $1 < $2",
            FilterCondition::MinSupport(2));
  DynamicLog log;
  auto result = DynamicEvaluate(f, db, {}, {}, &log);
  ASSERT_TRUE(result.ok());
  std::string trace = RenderDynamicTrace(log);
  EXPECT_NE(trace.find("filter"), std::string::npos);
  EXPECT_NE(trace.find("peak intermediate"), std::string::npos);
  EXPECT_NE(trace.find("ratio"), std::string::npos);
}

TEST(EvalExtraTest, ExtraPredicatesComposeWithNegation) {
  Database db = BeerDb();
  Relation banned("banned", Schema({"$1"}));
  banned.AddRow({Value("wine")});
  std::map<std::string, const Relation*> extra = {{"banned", &banned}};
  QueryFlock f = Flock("answer(B) :- baskets(B,$1) AND NOT banned($1)",
                       FilterCondition::MinSupport(1));
  auto result = EvaluateFlock(f, db, {}, {}, &extra);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(result->Contains({Value("wine")}));
  EXPECT_TRUE(result->Contains({Value("beer")}));
  EXPECT_TRUE(result->Contains({Value("diapers")}));
}

TEST(EvalExtraTest, GtFilterSupportStyle) {
  // COUNT > t (strict) is also support-style and must behave as t+1.
  Database db = BeerDb();
  QueryFlock gt = Flock("answer(B) :- baskets(B,$1)",
                        {FilterAgg::kCount, CompareOp::kGt, 4, 0});
  auto result = EvaluateFlock(gt, db);
  ASSERT_TRUE(result.ok());
  // beer: 5 baskets (>4 passes); diapers: 5; wine: 2.
  EXPECT_EQ(result->size(), 2u);
}

}  // namespace
}  // namespace qf
