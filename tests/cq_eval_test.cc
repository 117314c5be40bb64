// Unit tests for conjunctive-query evaluation: binding relations, joins,
// comparisons, negation, join orders, and error paths.
#include <gtest/gtest.h>

#include "flocks/cq_eval.h"
#include "datalog/parser.h"
#include "relational/ops.h"

namespace qf {
namespace {

ConjunctiveQuery Parse(const char* text) {
  auto cq = ParseRule(text);
  EXPECT_TRUE(cq.ok()) << cq.status().ToString();
  return *cq;
}

Database SmallBaskets() {
  Database db;
  Relation r("baskets", Schema({"BID", "Item"}));
  r.AddRow({Value(1), Value("beer")});
  r.AddRow({Value(1), Value("diapers")});
  r.AddRow({Value(2), Value("beer")});
  r.AddRow({Value(2), Value("diapers")});
  r.AddRow({Value(3), Value("beer")});
  r.AddRow({Value(3), Value("wine")});
  db.PutRelation(std::move(r));
  return db;
}

TEST(SubgoalBindingsTest, VariablesAndParameters) {
  Database db = SmallBaskets();
  Subgoal sg = Subgoal::Positive(
      "baskets", {Term::Variable("B"), Term::Parameter("1")});
  Relation b = SubgoalBindings(sg, db.Get("baskets"));
  EXPECT_EQ(b.schema(), Schema({"B", "$1"}));
  EXPECT_EQ(b.size(), 6u);
}

TEST(SubgoalBindingsTest, ConstantFilters) {
  Database db = SmallBaskets();
  Subgoal sg = Subgoal::Positive(
      "baskets", {Term::Variable("B"), Term::Constant(Value("beer"))});
  Relation b = SubgoalBindings(sg, db.Get("baskets"));
  EXPECT_EQ(b.schema(), Schema({"B"}));
  EXPECT_EQ(b.size(), 3u);
}

TEST(SubgoalBindingsTest, RepeatedVariableRequiresEquality) {
  Relation r("p", Schema({"X", "Y"}));
  r.AddRow({Value(1), Value(1)});
  r.AddRow({Value(1), Value(2)});
  Subgoal sg =
      Subgoal::Positive("p", {Term::Variable("X"), Term::Variable("X")});
  Relation b = SubgoalBindings(sg, r);
  EXPECT_EQ(b.schema(), Schema({"X"}));
  EXPECT_EQ(b.size(), 1u);
  EXPECT_TRUE(b.Contains({Value(1)}));
}

TEST(SubgoalBindingsTest, AllConstantsCollapseToGuard) {
  Relation r("p", Schema({"X"}));
  r.AddRow({Value(1)});
  Subgoal hit = Subgoal::Positive("p", {Term::Constant(Value(1))});
  Subgoal miss = Subgoal::Positive("p", {Term::Constant(Value(2))});
  EXPECT_EQ(SubgoalBindings(hit, r).size(), 1u);
  EXPECT_EQ(SubgoalBindings(hit, r).arity(), 0u);
  EXPECT_TRUE(SubgoalBindings(miss, r).empty());
}

TEST(CqEvalTest, SelfJoinPairs) {
  Database db = SmallBaskets();
  ConjunctiveQuery cq =
      Parse("answer(B) :- baskets(B,$1) AND baskets(B,$2) AND $1 < $2");
  PredicateResolver resolver(db);
  auto result =
      EvaluateConjunctiveBindings(cq, resolver, {"$1", "$2", "B"});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Pairs with $1 < $2: (beer,diapers)x2 baskets, (beer,wine)x1.
  EXPECT_EQ(result->size(), 3u);
  EXPECT_TRUE(
      result->Contains({Value("beer"), Value("diapers"), Value(1)}));
  EXPECT_TRUE(
      result->Contains({Value("beer"), Value("diapers"), Value(2)}));
  EXPECT_TRUE(result->Contains({Value("beer"), Value("wine"), Value(3)}));
}

TEST(CqEvalTest, ProjectionDeduplicates) {
  Database db = SmallBaskets();
  ConjunctiveQuery cq =
      Parse("answer(B) :- baskets(B,$1) AND baskets(B,$2) AND $1 < $2");
  PredicateResolver resolver(db);
  auto result = EvaluateConjunctiveBindings(cq, resolver, {"$1", "$2"});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), 2u);  // (beer,diapers), (beer,wine)
}

TEST(CqEvalTest, NegationAntiJoins) {
  Database db;
  Relation diagnoses("diagnoses", Schema({"Patient", "Disease"}));
  diagnoses.AddRow({Value("p1"), Value("flu")});
  diagnoses.AddRow({Value("p2"), Value("flu")});
  db.PutRelation(diagnoses);
  Relation exhibits("exhibits", Schema({"Patient", "Symptom"}));
  exhibits.AddRow({Value("p1"), Value("fever")});
  exhibits.AddRow({Value("p2"), Value("rash")});
  db.PutRelation(exhibits);
  Relation causes("causes", Schema({"Disease", "Symptom"}));
  causes.AddRow({Value("flu"), Value("fever")});
  db.PutRelation(causes);

  ConjunctiveQuery cq = Parse(
      "answer(P) :- exhibits(P,$s) AND diagnoses(P,D) AND NOT causes(D,$s)");
  PredicateResolver resolver(db);
  auto result = EvaluateConjunctiveBindings(cq, resolver, {"$s", "P"});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // p1's fever is explained by flu; p2's rash is not.
  EXPECT_EQ(result->size(), 1u);
  EXPECT_TRUE(result->Contains({Value("rash"), Value("p2")}));
}

TEST(CqEvalTest, ComparisonAgainstConstant) {
  Database db;
  Relation nums("nums", Schema({"N"}));
  for (int i = 0; i < 10; ++i) nums.AddRow({Value(i)});
  db.PutRelation(nums);
  ConjunctiveQuery cq = Parse("answer(N) :- nums(N) AND N >= 7");
  PredicateResolver resolver(db);
  auto result = EvaluateConjunctiveBindings(cq, resolver, {"N"});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), 3u);
}

TEST(CqEvalTest, ConstantOnlyComparisonShortCircuits) {
  Database db = SmallBaskets();
  ConjunctiveQuery cq = Parse("answer(B) :- baskets(B,$1) AND 2 < 1");
  PredicateResolver resolver(db);
  auto result = EvaluateConjunctiveBindings(cq, resolver, {"B"});
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->empty());
}

TEST(CqEvalTest, CartesianWhenNoSharedVariables) {
  Database db;
  Relation p("p", Schema({"X"}));
  p.AddRow({Value(1)});
  p.AddRow({Value(2)});
  db.PutRelation(p);
  Relation q("q", Schema({"Y"}));
  q.AddRow({Value(10)});
  db.PutRelation(q);
  ConjunctiveQuery cq = Parse("answer(X,Y) :- p(X) AND q(Y)");
  PredicateResolver resolver(db);
  auto result = EvaluateConjunctiveBindings(cq, resolver, {"X", "Y"});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), 2u);
}

TEST(CqEvalTest, ExplicitJoinOrderSameResult) {
  Database db = SmallBaskets();
  ConjunctiveQuery cq =
      Parse("answer(B) :- baskets(B,$1) AND baskets(B,$2) AND $1 < $2");
  PredicateResolver resolver(db);
  auto a = EvaluateConjunctiveBindings(cq, resolver, {"$1", "$2"},
                                       {.join_order = {0, 1}});
  auto b = EvaluateConjunctiveBindings(cq, resolver, {"$1", "$2"},
                                       {.join_order = {1, 0}});
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  a->SortRows();
  b->SortRows();
  EXPECT_EQ(a->rows(), b->rows());
}

TEST(CqEvalTest, PeakRowsReported) {
  Database db = SmallBaskets();
  ConjunctiveQuery cq =
      Parse("answer(B) :- baskets(B,$1) AND baskets(B,$2)");
  PredicateResolver resolver(db);
  std::size_t peak = 0;
  auto result =
      EvaluateConjunctiveBindings(cq, resolver, {"B"}, {}, {}, &peak);
  ASSERT_TRUE(result.ok());
  EXPECT_GE(peak, 6u);  // at least the base relation size
}

TEST(CqEvalTest, ExtraRelationsResolveFirst) {
  Database db = SmallBaskets();
  Relation ok("okItems", Schema({"$1"}));
  ok.AddRow({Value("beer")});
  std::map<std::string, const Relation*> extra = {{"okItems", &ok}};
  PredicateResolver resolver(db, extra);
  ConjunctiveQuery cq =
      Parse("answer(B) :- baskets(B,$1) AND okItems($1)");
  auto result = EvaluateConjunctiveBindings(cq, resolver, {"$1", "B"});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->size(), 3u);  // beer appears in baskets 1,2,3
}

// ------------------------------------------------------------ Errors ----

TEST(CqEvalErrorTest, UnknownPredicate) {
  Database db;
  PredicateResolver resolver(db);
  ConjunctiveQuery cq = Parse("answer(X) :- nope(X)");
  auto result = EvaluateConjunctiveBindings(cq, resolver, {"X"});
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST(CqEvalErrorTest, ArityMismatch) {
  Database db = SmallBaskets();
  PredicateResolver resolver(db);
  ConjunctiveQuery cq = Parse("answer(X) :- baskets(X)");
  auto result = EvaluateConjunctiveBindings(cq, resolver, {"X"});
  EXPECT_FALSE(result.ok());
}

TEST(CqEvalErrorTest, NoPositiveSubgoals) {
  Database db = SmallBaskets();
  PredicateResolver resolver(db);
  ConjunctiveQuery cq = Parse("answer(X) :- NOT baskets(X,Y)");
  auto result = EvaluateConjunctiveBindings(cq, resolver, {"X"});
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

TEST(CqEvalErrorTest, UnboundComparison) {
  Database db = SmallBaskets();
  PredicateResolver resolver(db);
  ConjunctiveQuery cq = Parse("answer(B) :- baskets(B,$1) AND $2 < $1");
  auto result = EvaluateConjunctiveBindings(cq, resolver, {"B"});
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

TEST(CqEvalErrorTest, UnboundOutputColumn) {
  Database db = SmallBaskets();
  PredicateResolver resolver(db);
  ConjunctiveQuery cq = Parse("answer(B) :- baskets(B,$1)");
  auto result = EvaluateConjunctiveBindings(cq, resolver, {"Z"});
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(CqEvalErrorTest, BadJoinOrderRejected) {
  Database db = SmallBaskets();
  PredicateResolver resolver(db);
  ConjunctiveQuery cq =
      Parse("answer(B) :- baskets(B,$1) AND baskets(B,$2)");
  auto r1 = EvaluateConjunctiveBindings(cq, resolver, {"B"},
                                        {.join_order = {0}});
  EXPECT_FALSE(r1.ok());
  auto r2 = EvaluateConjunctiveBindings(cq, resolver, {"B"},
                                        {.join_order = {0, 0}});
  EXPECT_FALSE(r2.ok());
  auto r3 = EvaluateConjunctiveBindings(cq, resolver, {"B"},
                                        {.join_order = {0, 2}});
  EXPECT_FALSE(r3.ok());
}

}  // namespace
}  // namespace qf
