// Tests for GYO acyclicity, join trees, and the Yannakakis full-reducer
// evaluation mode: correctness against the plain evaluator and the
// dangling-tuple-elimination property.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "datalog/acyclic.h"
#include "datalog/parser.h"
#include "flocks/cq_eval.h"
#include "flocks/eval.h"
#include "workload/graph_gen.h"
#include "workload/medical_gen.h"

namespace qf {
namespace {

CqEvalOptions ReducedOptions() {
  CqEvalOptions options;
  options.full_reducer = true;
  return options;
}
ConjunctiveQuery Parse(const char* text) {
  auto cq = ParseRule(text);
  EXPECT_TRUE(cq.ok()) << cq.status().ToString();
  return *cq;
}

TEST(AcyclicTest, PathsAndStarsAreAcyclic) {
  EXPECT_TRUE(IsAcyclic(Parse("answer(X) :- arc(X,Y)")));
  EXPECT_TRUE(IsAcyclic(Parse("answer(X) :- arc(X,Y) AND arc(Y,Z)")));
  EXPECT_TRUE(IsAcyclic(
      Parse("answer(X) :- arc(X,Y) AND arc(X,Z) AND arc(X,W)")));
  EXPECT_TRUE(IsAcyclic(Parse(
      "answer(P) :- exhibits(P,$s) AND treatments(P,$m) AND "
      "diagnoses(P,D)")));
}

TEST(AcyclicTest, TriangleIsCyclic) {
  EXPECT_FALSE(IsAcyclic(
      Parse("answer(X) :- arc(X,Y) AND arc(Y,Z) AND arc(Z,X)")));
}

TEST(AcyclicTest, AlphaAcyclicityIsNotGraphAcyclicity) {
  // A "cycle" covered by a big subgoal is alpha-acyclic.
  EXPECT_TRUE(IsAcyclic(Parse(
      "answer(X) :- arc(X,Y) AND arc(Y,Z) AND arc(Z,X) AND tri(X,Y,Z)")));
}

TEST(AcyclicTest, JoinTreeShape) {
  auto tree = BuildJoinTree(
      Parse("answer(X) :- arc(X,Y) AND arc(Y,Z) AND arc(Z,W)"));
  ASSERT_TRUE(tree.has_value());
  EXPECT_EQ(tree->ears.size(), 2u);
  EXPECT_EQ(tree->parents.size(), 2u);
  // The root plus the ears partition the three subgoals.
  std::set<std::size_t> all(tree->ears.begin(), tree->ears.end());
  all.insert(tree->root);
  EXPECT_EQ(all.size(), 3u);
}

TEST(AcyclicTest, NoPositiveSubgoalsHasNoTree) {
  ConjunctiveQuery cq;
  cq.head_vars = {"X"};
  cq.subgoals = {Subgoal::Negated("p", {Term::Variable("X")})};
  EXPECT_FALSE(BuildJoinTree(cq).has_value());
}

TEST(FullReducerTest, EliminatesDanglingTuplesFromIntermediates) {
  // A long chain where most arcs dangle: the reducer's peak stays near
  // the answer size while the plain fold drags dangling tuples along.
  Database db;
  Relation arc("arc", Schema({"S", "T"}));
  // A 3-step chain 0->1->2->3 plus 200 dangling arcs into node 99x.
  arc.AddRow({Value(0), Value(1)});
  arc.AddRow({Value(1), Value(2)});
  arc.AddRow({Value(2), Value(3)});
  for (int i = 0; i < 200; ++i) {
    arc.AddRow({Value(1000 + i), Value(2000 + i)});
  }
  db.PutRelation(std::move(arc));

  ConjunctiveQuery cq =
      Parse("answer(X) :- arc(X,Y) AND arc(Y,Z) AND arc(Z,W)");
  PredicateResolver resolver(db);
  std::size_t plain_peak = 0, reduced_peak = 0;
  auto plain = EvaluateConjunctiveBindings(cq, resolver, {"X"},
                                           {}, {}, &plain_peak);
  auto reduced = EvaluateConjunctiveBindings(
      cq, resolver, {"X"}, ReducedOptions(), {}, &reduced_peak);
  ASSERT_TRUE(plain.ok());
  ASSERT_TRUE(reduced.ok());
  plain->SortRows();
  reduced->SortRows();
  EXPECT_EQ(plain->rows(), reduced->rows());
  EXPECT_EQ(reduced->size(), 1u);  // only X=0 starts a 3-chain
  // The plain fold's peak carries all 203 arcs; the reduced one carries 1.
  EXPECT_GT(plain_peak, 100u);
  EXPECT_LE(reduced_peak, 5u);
}

TEST(FullReducerTest, CyclicQueriesFallBack) {
  Database db;
  Relation arc("arc", Schema({"S", "T"}));
  arc.AddRow({Value(0), Value(1)});
  arc.AddRow({Value(1), Value(2)});
  arc.AddRow({Value(2), Value(0)});
  db.PutRelation(std::move(arc));
  ConjunctiveQuery triangle =
      Parse("answer(X) :- arc(X,Y) AND arc(Y,Z) AND arc(Z,X)");
  PredicateResolver resolver(db);
  auto result = EvaluateConjunctiveBindings(triangle, resolver, {"X"},
                                            ReducedOptions());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), 3u);  // every node lies on the triangle
}

// Property: full-reducer evaluation agrees with the plain evaluator on
// random graphs and the medical flock, including negation/comparisons.
class FullReducerProperty : public ::testing::TestWithParam<int> {};

TEST_P(FullReducerProperty, AgreesWithPlainEvaluation) {
  Database db;
  db.PutRelation(GenerateGraph({.n_nodes = 60, .avg_out_degree = 3,
                                .target_theta = 0.7,
                                .seed = static_cast<std::uint64_t>(
                                    GetParam())}));
  PredicateResolver resolver(db);
  const char* queries[] = {
      "answer(X) :- arc(X,Y) AND arc(Y,Z)",
      "answer(X) :- arc(X,Y) AND arc(Y,Z) AND arc(Z,W)",
      "answer(X) :- arc(X,Y) AND arc(X,Z) AND Y < Z",
      "answer(X) :- arc(X,Y) AND arc(Y,Z) AND NOT arc(Z,X)",
  };
  for (const char* text : queries) {
    ConjunctiveQuery cq = *ParseRule(text);
    auto plain = EvaluateConjunctiveBindings(cq, resolver, {"X"});
    auto reduced = EvaluateConjunctiveBindings(cq, resolver, {"X"},
                                               ReducedOptions());
    ASSERT_TRUE(plain.ok());
    ASSERT_TRUE(reduced.ok()) << reduced.status().ToString();
    plain->SortRows();
    reduced->SortRows();
    EXPECT_EQ(plain->rows(), reduced->rows()) << text;
  }
}

TEST_P(FullReducerProperty, MedicalFlockAgrees) {
  MedicalConfig config;
  config.n_patients = 200;
  config.seed = static_cast<std::uint64_t>(GetParam()) + 40;
  Database db = GenerateMedical(config);
  auto flock = MakeFlock(
      "answer(P) :- exhibits(P,$s) AND treatments(P,$m) AND "
      "diagnoses(P,D) AND NOT causes(D,$s)",
      FilterCondition::MinSupport(4));
  ASSERT_TRUE(flock.ok());
  FlockEvalOptions reduced_options;
  reduced_options.per_disjunct.push_back(ReducedOptions());
  auto plain = EvaluateFlock(*flock, db);
  auto reduced = EvaluateFlock(*flock, db, reduced_options);
  ASSERT_TRUE(plain.ok());
  ASSERT_TRUE(reduced.ok());
  plain->SortRows();
  reduced->SortRows();
  EXPECT_EQ(plain->rows(), reduced->rows());
}

INSTANTIATE_TEST_SUITE_P(Seeds, FullReducerProperty, ::testing::Range(1, 9));

}  // namespace
}  // namespace qf
