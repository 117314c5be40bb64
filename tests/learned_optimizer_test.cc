// Tests for the learned optimizer (ROADMAP item 4): the outcome-history
// store and its codecs, the contextual bandit's feature hashing, arm
// enumeration and UCB policy, and the shell integration — including the
// differential suite pinning learned RUN output bit-identical to static
// mode at every thread count, under governor budgets, and across catalog
// CHECKPOINT / OPEN (history replay).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/vfs.h"
#include "flocks/eval.h"
#include "flocks/filter.h"
#include "flocks/flock.h"
#include "optimizer/bandit.h"
#include "optimizer/cost_model.h"
#include "optimizer/dynamic.h"
#include "optimizer/executor_support.h"
#include "optimizer/history.h"
#include "optimizer/join_order.h"
#include "optimizer/plan_search.h"
#include "optimizer/stats.h"
#include "relational/serialize.h"
#include "shell/shell.h"
#include "workload/basket_gen.h"

namespace qf {
namespace {

QueryFlock Flock(const char* text, FilterCondition filter) {
  auto f = MakeFlock(text, filter);
  EXPECT_TRUE(f.ok()) << f.status().ToString();
  return *f;
}

// ------------------------------------------------------ outcome history

BanditOutcome Outcome(std::uint64_t context, const char* arm, double wall,
                      double rows = 10, double skew = 1.0) {
  BanditOutcome o;
  o.context = context;
  o.arm = arm;
  o.wall_ms = wall;
  o.rows = rows;
  o.skew = skew;
  return o;
}

TEST(OutcomeHistoryTest, RecordFoldsIntoRunningAggregates) {
  OutcomeHistory h;
  EXPECT_TRUE(h.empty());
  h.Record(Outcome(7, "direct:cost", 2.0, 10, 1.0));
  h.Record(Outcome(7, "direct:cost", 4.0, 20, 3.0));
  h.Record(Outcome(7, "plan:search", 8.0));
  h.Record(Outcome(9, "plan:search", 1.0));
  EXPECT_EQ(h.context_count(), 2u);
  EXPECT_EQ(h.total_plays(), 4u);
  const ArmStats* cell = h.Find(7, "direct:cost");
  ASSERT_NE(cell, nullptr);
  EXPECT_EQ(cell->plays, 2u);
  EXPECT_DOUBLE_EQ(cell->MeanWallMs(), 3.0);
  EXPECT_DOUBLE_EQ(cell->MeanRows(), 15.0);
  EXPECT_DOUBLE_EQ(cell->MeanSkew(), 2.0);
  EXPECT_DOUBLE_EQ(cell->last_wall_ms, 4.0);
  EXPECT_EQ(h.Find(7, "dyn:session"), nullptr);
  EXPECT_EQ(h.Find(8, "plan:search"), nullptr);
  ASSERT_NE(h.FindContext(9), nullptr);
  EXPECT_EQ(h.FindContext(9)->size(), 1u);
}

TEST(OutcomeHistoryTest, EncodeDecodeRoundTripsBitForBit) {
  OutcomeHistory h;
  h.Record(Outcome(0xdeadbeef12345678ull, "dyn:eager", 1.25, 42, 2.5));
  h.Record(Outcome(0xdeadbeef12345678ull, "plan:search", 7.5));
  h.Record(Outcome(3, "direct:text", 0.5));
  std::string bytes;
  h.EncodeTo(bytes);
  OutcomeHistory decoded;
  ByteReader in(bytes);
  ASSERT_TRUE(decoded.DecodeFrom(in).ok());
  EXPECT_EQ(decoded, h);
  // Determinism: the same store encodes to the same bytes.
  std::string again;
  decoded.EncodeTo(again);
  EXPECT_EQ(again, bytes);
}

TEST(OutcomeHistoryTest, EmptyHistoryRoundTrips) {
  OutcomeHistory h;
  std::string bytes;
  h.EncodeTo(bytes);
  OutcomeHistory decoded;
  decoded.Record(Outcome(1, "x", 1.0));  // Decode must replace this.
  ByteReader in(bytes);
  ASSERT_TRUE(decoded.DecodeFrom(in).ok());
  EXPECT_TRUE(decoded.empty());
}

TEST(OutcomeHistoryTest, DecodeRejectsTruncatedBytes) {
  OutcomeHistory h;
  h.Record(Outcome(7, "direct:cost", 2.0));
  std::string bytes;
  h.EncodeTo(bytes);
  for (std::size_t cut : {bytes.size() - 1, bytes.size() / 2,
                          std::size_t{1}}) {
    OutcomeHistory decoded;
    std::string truncated = bytes.substr(0, cut);
    ByteReader in(truncated);
    EXPECT_FALSE(decoded.DecodeFrom(in).ok()) << "cut at " << cut;
  }
}

TEST(OutcomeHistoryTest, OutcomeRecordRoundTrips) {
  BanditOutcome o = Outcome(0x0123456789abcdefull, "dyn:cautious", 3.5,
                            100, 1.75);
  std::string bytes;
  EncodeBanditOutcome(o, bytes);
  BanditOutcome decoded;
  ByteReader in(bytes);
  ASSERT_TRUE(DecodeBanditOutcome(in, &decoded).ok());
  EXPECT_EQ(decoded.context, o.context);
  EXPECT_EQ(decoded.arm, o.arm);
  EXPECT_DOUBLE_EQ(decoded.wall_ms, o.wall_ms);
  EXPECT_DOUBLE_EQ(decoded.rows, o.rows);
  EXPECT_DOUBLE_EQ(decoded.skew, o.skew);
}

TEST(OutcomeHistoryTest, DescribeIsDeterministicAndReadable) {
  OutcomeHistory h;
  h.Record(Outcome(7, "plan:search", 2.0));
  h.Record(Outcome(7, "direct:cost", 1.0));
  std::string text = h.Describe();
  EXPECT_NE(text.find("1 context"), std::string::npos) << text;
  EXPECT_NE(text.find("direct:cost"), std::string::npos);
  EXPECT_NE(text.find("plan:search"), std::string::npos);
  EXPECT_EQ(text, h.Describe());
}

// ------------------------------------------------------ feature hashing

Database SmallBaskets() {
  Database db;
  db.PutRelation(GenerateBaskets({.n_baskets = 100, .n_items = 20,
                                  .avg_basket_size = 4, .zipf_theta = 1.0,
                                  .seed = 31}));
  return db;
}

TEST(PlanContextTest, ShapeHashIgnoresVariableNamesNotParameters) {
  QueryFlock a = Flock("answer(B) :- baskets(B,$1) AND baskets(B,$2)",
                       FilterCondition::MinSupport(4));
  QueryFlock renamed = Flock("answer(C) :- baskets(C,$1) AND baskets(C,$2)",
                             FilterCondition::MinSupport(4));
  // Same shape up to alpha-renaming of variables: same hash.
  EXPECT_EQ(FlockShapeHash(a), FlockShapeHash(renamed));
  // Sharing one parameter across positions is a *different* shape.
  QueryFlock shared = Flock("answer(B) :- baskets(B,$1) AND baskets(B,$1)",
                            FilterCondition::MinSupport(4));
  EXPECT_NE(FlockShapeHash(a), FlockShapeHash(shared));
  // So is a different predicate.
  QueryFlock other = Flock("answer(B) :- other(B,$1) AND baskets(B,$2)",
                           FilterCondition::MinSupport(4));
  EXPECT_NE(FlockShapeHash(a), FlockShapeHash(other));
}

TEST(PlanContextTest, ContextBucketsThresholdAndDataMagnitude) {
  Database db = SmallBaskets();
  CostModel model(DatabaseStats::Compute(db));
  QueryFlock f4 = Flock("answer(B) :- baskets(B,$1)",
                        FilterCondition::MinSupport(4));
  QueryFlock f5 = Flock("answer(B) :- baskets(B,$1)",
                        FilterCondition::MinSupport(5));
  QueryFlock f16 = Flock("answer(B) :- baskets(B,$1)",
                         FilterCondition::MinSupport(16));
  // 4 and 5 share a log2 bucket; 16 is a different decade.
  EXPECT_EQ(MakePlanContext(f4, model).key, MakePlanContext(f5, model).key);
  EXPECT_NE(MakePlanContext(f4, model).key, MakePlanContext(f16, model).key);

  // 10x the data is a different cell for the same flock.
  Database big;
  big.PutRelation(GenerateBaskets({.n_baskets = 2000, .n_items = 20,
                                   .avg_basket_size = 4, .zipf_theta = 1.0,
                                   .seed = 31}));
  CostModel big_model(DatabaseStats::Compute(big));
  EXPECT_NE(MakePlanContext(f4, model).key,
            MakePlanContext(f4, big_model).key);

  EXPECT_FALSE(MakePlanContext(f4, model).description.empty());
}

// ------------------------------------------------------ arm enumeration

TEST(EnumerateArmsTest, StaticArmsAlwaysPresentDynamicGated) {
  Database db = SmallBaskets();
  CostModel model(DatabaseStats::Compute(db));
  QueryFlock flock =
      Flock("answer(B) :- baskets(B,$1) AND baskets(B,$2) AND $1 < $2",
            FilterCondition::MinSupport(4));
  std::vector<Strategy> static_only =
      EnumerateArms(flock, model, /*dynamic_eligible=*/false, DynamicKnobs{});
  ASSERT_GE(static_only.size(), 2u);
  EXPECT_EQ(static_only[0].id, "plan:search");
  EXPECT_EQ(static_only[0].kind, Strategy::Kind::kPlan);
  EXPECT_EQ(static_only[1].id, "direct:cost");
  for (const Strategy& arm : static_only) {
    EXPECT_NE(arm.kind, Strategy::Kind::kDynamic) << arm.id;
  }

  std::vector<Strategy> with_dyn =
      EnumerateArms(flock, model, /*dynamic_eligible=*/true, DynamicKnobs{});
  ASSERT_GT(with_dyn.size(), static_only.size());
  bool has_session = false, has_eager = false, has_cautious = false;
  for (const Strategy& arm : with_dyn) {
    if (arm.id == "dyn:session") has_session = true;
    if (arm.id == "dyn:eager") has_eager = true;
    if (arm.id == "dyn:cautious") has_cautious = true;
  }
  EXPECT_TRUE(has_session && has_eager && has_cautious);

  // Session knobs equal to a preset: the duplicate preset arm is dropped
  // (two ids for one strategy would split its learned history).
  DynamicKnobs eager{2.0, 0.9, 0.05};
  std::vector<Strategy> deduped =
      EnumerateArms(flock, model, /*dynamic_eligible=*/true, eager);
  for (const Strategy& arm : deduped) EXPECT_NE(arm.id, "dyn:eager");
}

TEST(EnumerateArmsTest, TextOrderArmOnlyWhenItDiffersFromCost) {
  // One relation, one subgoal: the cost order IS the text order, so a
  // separate "direct:text" arm would be a duplicate strategy.
  Database db = SmallBaskets();
  CostModel model(DatabaseStats::Compute(db));
  QueryFlock single = Flock("answer(B) :- baskets(B,$1)",
                            FilterCondition::MinSupport(4));
  for (const Strategy& arm :
       EnumerateArms(single, model, false, DynamicKnobs{})) {
    EXPECT_NE(arm.id, "direct:text");
  }
}

// ------------------------------------------------------ bandit policy

std::vector<Strategy> ThreeArms() {
  std::vector<Strategy> arms(3);
  arms[0].id = "a";
  arms[1].id = "b";
  arms[2].id = "c";
  return arms;
}

TEST(PlanBanditTest, WarmUpExploresUnplayedArmsInOrder) {
  OutcomeHistory h;
  std::vector<Strategy> arms = ThreeArms();
  PlanBandit bandit(h);
  BanditChoice first = bandit.Choose(1, arms);
  EXPECT_EQ(first.index, 0u);
  EXPECT_TRUE(first.exploring);
  h.Record(Outcome(1, "a", 5.0));
  BanditChoice second = bandit.Choose(1, arms);
  EXPECT_EQ(second.index, 1u);
  EXPECT_TRUE(second.exploring);
  h.Record(Outcome(1, "b", 1.0));
  BanditChoice third = bandit.Choose(1, arms);
  EXPECT_EQ(third.index, 2u);
  EXPECT_TRUE(third.exploring);
}

TEST(PlanBanditTest, ExploitsCheapestArmOnceWarm) {
  OutcomeHistory h;
  h.Record(Outcome(1, "a", 5.0));
  h.Record(Outcome(1, "b", 1.0));
  h.Record(Outcome(1, "c", 3.0));
  std::vector<Strategy> arms = ThreeArms();
  // exploration = 0: pure greedy, the cheapest mean must win.
  PlanBandit bandit(h, /*exploration=*/0.0);
  BanditChoice choice = bandit.Choose(1, arms);
  EXPECT_EQ(choice.arm_id, "b");
  EXPECT_FALSE(choice.exploring);
  EXPECT_EQ(choice.plays, 1u);
  EXPECT_DOUBLE_EQ(choice.mean_wall_ms, 1.0);
  EXPECT_NE(choice.posterior.find("score="), std::string::npos);
}

TEST(PlanBanditTest, TiesBreakTowardLowerIndex) {
  OutcomeHistory h;
  h.Record(Outcome(1, "a", 2.0));
  h.Record(Outcome(1, "b", 2.0));
  h.Record(Outcome(1, "c", 2.0));
  PlanBandit bandit(h, 0.0);
  EXPECT_EQ(bandit.Choose(1, ThreeArms()).arm_id, "a");
}

TEST(PlanBanditTest, ExplorationBonusRevisitsUnderPlayedArms) {
  OutcomeHistory h;
  // "a" is slightly cheaper but heavily played; "b" barely played. With a
  // strong exploration weight the bound must favor the uncertain arm.
  for (int i = 0; i < 50; ++i) h.Record(Outcome(1, "a", 2.0));
  h.Record(Outcome(1, "b", 2.2));
  std::vector<Strategy> arms(2);
  arms[0].id = "a";
  arms[1].id = "b";
  EXPECT_EQ(PlanBandit(h, 5.0).Choose(1, arms).arm_id, "b");
  EXPECT_EQ(PlanBandit(h, 0.0).Choose(1, arms).arm_id, "a");
}

TEST(PlanBanditTest, ContextsAreIndependent) {
  OutcomeHistory h;
  h.Record(Outcome(1, "a", 1.0));
  h.Record(Outcome(1, "b", 5.0));
  h.Record(Outcome(1, "c", 5.0));
  // Context 2 is fresh: warm-up restarts regardless of context 1's data.
  BanditChoice choice = PlanBandit(h).Choose(2, ThreeArms());
  EXPECT_TRUE(choice.exploring);
  EXPECT_EQ(choice.index, 0u);
}

// ------------------------------- statistics per relation version

Relation Numbers(const std::string& name, int n, int distinct,
                 int first = 0) {
  Relation rel(name, Schema({"X", "P"}));
  for (int i = first; i < first + n; ++i) {
    rel.AddRow({Value(i), Value(i % distinct)});
  }
  return rel;
}

TEST(StatsRefreshTest, AppendRestatsOnlyTheAppendedRelation) {
  Database db = SmallBaskets();
  db.PutRelation(Numbers("archive", 50, 5));
  db.PutRelation(Numbers("other", 30, 3));
  DatabaseStats stats;
  EXPECT_EQ(stats.Refresh(db), 3u);
  EXPECT_EQ(stats.Refresh(db), 0u);  // nothing changed: nothing restatted
  const RelationStats* baskets = stats.Find("baskets");
  const RelationStats* other = stats.Find("other");
  const std::size_t baskets_rows = baskets->rows;

  Result<Relation> grown =
      AppendRelation(db.Get("archive"), Numbers("archive", 20, 5, 50));
  ASSERT_TRUE(grown.ok()) << grown.status().ToString();
  db.PutRelation(std::move(*grown));
  // One ComputeStats call (the count), and it went to archive (its rows
  // moved); every other entry is the same object with the same numbers.
  EXPECT_EQ(stats.Refresh(db), 1u);
  EXPECT_EQ(stats.Find("archive")->rows, 70u);
  EXPECT_EQ(stats.Find("baskets"), baskets);
  EXPECT_EQ(stats.Find("other"), other);
  EXPECT_EQ(baskets->rows, baskets_rows);
  EXPECT_EQ(other->rows, 30u);
  EXPECT_EQ(other->column_distinct, (std::vector<std::size_t>{30, 3}));
}

TEST(StatsRefreshTest, ReplacedHandleIsRestattedEvenAtAReusedAddress) {
  // Handles whose payload is a separate allocation, so freeing the old
  // relation hands its address back to the allocator while the statistics
  // still remember its (weak) handle.
  auto handle = [](Relation rel) {
    return std::shared_ptr<const Relation>(new Relation(std::move(rel)));
  };
  Database db;
  db.PutRelation(handle(Numbers("r", 10, 2)));
  DatabaseStats stats;
  ASSERT_EQ(stats.Refresh(db), 1u);
  const Relation* old_address = &db.Get("r");
  db.PutRelation(handle(Numbers("placeholder", 1, 1)));  // another name
  db.PutRelation(handle(Numbers("r", 1, 1)));  // frees the old payload
  db.PutRelation(handle(Numbers("r", 40, 8)));
  SCOPED_TRACE(&db.Get("r") == old_address ? "address reused"
                                           : "address not reused");
  EXPECT_EQ(stats.Refresh(db), 2u);  // r and placeholder
  EXPECT_EQ(stats.Find("r")->rows, 40u);
  EXPECT_EQ(stats.Find("r")->column_distinct,
            (std::vector<std::size_t>{40, 8}));

  // A database without `r` drops it; an entry added by Put goes too.
  stats.Put("view", RelationStats{.rows = 3});
  Database without;
  without.PutRelation(db.GetShared("placeholder"));
  EXPECT_EQ(stats.Refresh(without), 2u);
  EXPECT_EQ(stats.Find("r"), nullptr);
  EXPECT_EQ(stats.Find("view"), nullptr);
  EXPECT_NE(stats.Find("placeholder"), nullptr);
}

TEST(StatsGenerationTest, SkewedAppendChangesChosenJoinOrder) {
  // Before the append `small` is the cheaper leading relation; stale
  // statistics would keep joining it first even after it grows 100x.
  Database db;
  Relation small("small", Schema({"X", "P"}));
  for (int i = 0; i < 10; ++i) {
    small.AddRow({Value(i), Value("p" + std::to_string(i % 3))});
  }
  Relation big("big", Schema({"X", "Q"}));
  for (int i = 0; i < 2000; ++i) {
    big.AddRow({Value(i), Value("q" + std::to_string(i % 7))});
  }
  db.PutRelation(small);
  db.PutRelation(std::move(big));
  ConjunctiveQuery cq =
      Flock("answer(X) :- small(X,$1) AND big(X,$2)",
            FilterCondition::MinSupport(2))
          .query.disjuncts.front();

  CostModel before(DatabaseStats::Compute(db));
  std::vector<std::size_t> order_before = ChooseJoinOrder(cq, before);

  Relation grown = db.Get("small");
  for (int i = 10; i < 100000; ++i) {
    grown.AddRow({Value(i), Value("p" + std::to_string(i % 5000))});
  }
  grown.set_name("small");
  db.PutRelation(std::move(grown));  // bumps Database::generation

  // The stale model still prefers the old order; a fresh Compute must
  // flip the leading relation.
  EXPECT_EQ(ChooseJoinOrder(cq, before), order_before);
  CostModel after(DatabaseStats::Compute(db));
  std::vector<std::size_t> order_after = ChooseJoinOrder(cq, after);
  EXPECT_NE(order_after, order_before)
      << "join order did not react to a 100x skewed append";
}

// --------------------------------------------------- shell integration

std::string MustRun(Shell& shell, std::string_view statement) {
  Result<std::string> out = shell.Execute(statement);
  EXPECT_TRUE(out.ok()) << out.status().ToString() << " for: " << statement;
  return out.ok() ? *out : std::string();
}

// Everything after the status line — the relation preview, which must be
// bit-identical across modes, arms, and thread counts.
std::string Preview(const std::string& run_output) {
  std::size_t nl = run_output.find('\n');
  return nl == std::string::npos ? run_output : run_output.substr(nl + 1);
}

void SeedWorkload(Shell& shell) {
  MustRun(shell,
          "GEN BASKETS b n_baskets=300 n_items=40 avg_size=5 theta=1.1 "
          "seed=17");
  MustRun(shell,
          "FLOCK f QUERY answer(B) :- b(B,$1) AND b(B,$2) AND $1 < $2 "
          "FILTER COUNT >= 6");
}

TEST(LearnedShellTest, LearnedRunMatchesStaticAtEveryThreadCount) {
  Shell shell;
  SeedWorkload(shell);
  std::string expected = Preview(MustRun(shell, "RUN f DIRECT LIMIT 1000"));
  ASSERT_FALSE(expected.empty());
  MustRun(shell, "SET OPTIMIZER LEARNED");
  for (unsigned threads : {1u, 2u, 4u}) {
    // Enough runs to cycle through every arm's warm-up and into
    // exploitation; each one must reproduce the static answer exactly.
    for (int i = 0; i < 8; ++i) {
      std::string out = MustRun(shell, "RUN f LIMIT 1000 THREADS " +
                                           std::to_string(threads));
      EXPECT_NE(out.find("LEARNED:"), std::string::npos) << out;
      EXPECT_EQ(Preview(out), expected)
          << "learned run diverged at threads=" << threads << " run " << i;
    }
  }
  // The history saw every one of those runs.
  std::string state = MustRun(shell, "SHOW OPTIMIZER STATE");
  EXPECT_NE(state.find("optimizer: learned"), std::string::npos) << state;
  EXPECT_NE(state.find("24 outcomes"), std::string::npos) << state;
}

TEST(LearnedShellTest, LearnedRunMatchesStaticUnderGovernorBudgets) {
  Shell shell;
  SeedWorkload(shell);
  std::string expected = Preview(MustRun(shell, "RUN f DIRECT LIMIT 1000"));
  MustRun(shell, "SET OPTIMIZER LEARNED");
  MustRun(shell, "SET MEMORY 64");
  MustRun(shell, "SET TIMEOUT 60000");
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(Preview(MustRun(shell, "RUN f LIMIT 1000")), expected)
        << "governed learned run " << i;
  }
}

TEST(LearnedShellTest, ExplicitModeWordOverridesLearnedMode) {
  Shell shell;
  SeedWorkload(shell);
  MustRun(shell, "SET OPTIMIZER LEARNED");
  EXPECT_NE(MustRun(shell, "RUN f PLAN").find("(PLAN)"), std::string::npos);
  EXPECT_NE(MustRun(shell, "RUN f DYNAMIC").find("(DYNAMIC)"),
            std::string::npos);
  MustRun(shell, "SET OPTIMIZER STATIC");
  EXPECT_NE(MustRun(shell, "RUN f").find("(PLAN)"), std::string::npos);
}

TEST(LearnedShellTest, ExplainAnalyzeRendersChosenArmAndPosterior) {
  Shell shell;
  SeedWorkload(shell);
  MustRun(shell, "SET OPTIMIZER LEARNED");
  std::string out = MustRun(shell, "EXPLAIN ANALYZE f");
  EXPECT_NE(out.find("optimizer: context"), std::string::npos) << out;
  EXPECT_NE(out.find("chose plan:search (exploring)"), std::string::npos)
      << out;
  // Warm the bandit past warm-up; the posterior then shows scored arms.
  for (int i = 0; i < 6; ++i) MustRun(shell, "RUN f");
  out = MustRun(shell, "EXPLAIN ANALYZE f");
  EXPECT_NE(out.find("exploiting"), std::string::npos) << out;
  EXPECT_NE(out.find("score="), std::string::npos) << out;
}

TEST(LearnedShellTest, ShowOptimizerStateReportsModeKnobsAndHistory) {
  Shell shell;
  std::string out = MustRun(shell, "SHOW OPTIMIZER STATE");
  EXPECT_NE(out.find("optimizer: static"), std::string::npos) << out;
  EXPECT_NE(out.find("aggressiveness=1.000"), std::string::npos) << out;
  MustRun(shell, "SET DYNAMIC AGGRESSIVENESS 2.5");
  MustRun(shell, "SET DYNAMIC IMPROVEMENT 0.75");
  MustRun(shell, "SET DYNAMIC MINREMOVED 0.1");
  out = MustRun(shell, "SHOW OPTIMIZER STATE");
  EXPECT_NE(out.find("aggressiveness=2.500"), std::string::npos) << out;
  EXPECT_NE(out.find("improvement=0.750"), std::string::npos) << out;
  EXPECT_NE(out.find("min_removed=0.100"), std::string::npos) << out;
  // Bad knob values are rejected.
  EXPECT_FALSE(shell.Execute("SET DYNAMIC IMPROVEMENT 1.5").ok());
  EXPECT_FALSE(shell.Execute("SET DYNAMIC AGGRESSIVENESS -1").ok());
  EXPECT_FALSE(shell.Execute("SET DYNAMIC BOGUS 1").ok());
}

// A DYNAMIC value whose stored thousandths overflow an int64 is rejected
// as malformed (not as negative) and logs nothing; the largest accepted
// one replies within its line and reopens to the same state.
TEST(LearnedShellTest, DynamicKnobsRejectOverflowingValues) {
  MemVfs vfs;
  Shell shell;
  shell.set_vfs(&vfs);
  MustRun(shell, "OPEN cat");
  for (const char* value : {"1e300", "1e16", "9223372036854776"}) {
    Result<std::string> out =
        shell.Execute(std::string("SET DYNAMIC AGGRESSIVENESS ") + value);
    ASSERT_FALSE(out.ok()) << value << " -> " << *out;
    EXPECT_EQ(out.status().code(), StatusCode::kInvalidArgument) << value;
    EXPECT_EQ(out.status().message(),
              "usage: SET DYNAMIC AGGRESSIVENESS|IMPROVEMENT|MINREMOVED <v>")
        << value;
  }
  EXPECT_TRUE(shell.catalog()->state().knobs.empty());
  EXPECT_EQ(shell.dynamic_knobs(), DynamicKnobs());

  EXPECT_EQ(MustRun(shell, "SET DYNAMIC AGGRESSIVENESS 9223372036854774"),
            "dynamic knobs: aggressiveness=9223372036854774.000 "
            "improvement=0.500 min_removed=0.200\n");
  std::string state = MustRun(shell, "SHOW OPTIMIZER STATE");
  Shell reopened;
  reopened.set_vfs(&vfs);
  MustRun(reopened, "OPEN cat");
  EXPECT_EQ(MustRun(reopened, "SHOW OPTIMIZER STATE"), state);
  EXPECT_EQ(reopened.dynamic_knobs(), shell.dynamic_knobs());
}

TEST(LearnedShellTest, HistorySurvivesCheckpointAndReopen) {
  MemVfs vfs;
  std::string state_before;
  {
    Shell shell;
    shell.set_vfs(&vfs);
    MustRun(shell, "OPEN cat");
    SeedWorkload(shell);
    MustRun(shell, "SET OPTIMIZER LEARNED");
    MustRun(shell, "SET DYNAMIC AGGRESSIVENESS 1.5");
    for (int i = 0; i < 4; ++i) MustRun(shell, "RUN f");
    MustRun(shell, "CHECKPOINT");  // history must survive the snapshot
    for (int i = 0; i < 3; ++i) MustRun(shell, "RUN f");  // ... and the WAL
    state_before = MustRun(shell, "SHOW OPTIMIZER STATE");
    EXPECT_NE(state_before.find("7 outcomes"), std::string::npos)
        << state_before;
  }
  Shell reopened;
  reopened.set_vfs(&vfs);
  MustRun(reopened, "OPEN cat");
  // Mode, knobs, and the full outcome history all replay. Wall times are
  // data, not re-measured, so the state text matches byte-for-byte.
  EXPECT_EQ(MustRun(reopened, "SHOW OPTIMIZER STATE"), state_before);
  EXPECT_TRUE(reopened.learned_optimizer());
  // Learning continues against the recovered history: the next RUN is a
  // learned run and lands in the same context cell.
  MustRun(reopened, "RUN f");
  EXPECT_NE(MustRun(reopened, "SHOW OPTIMIZER STATE").find("8 outcomes"),
            std::string::npos);
}

// ------------------------------- arm-by-arm differential (unit level)

// Executes `arm` the way Shell::Execute does, at `threads`.
Result<Relation> ExecuteArm(const Strategy& arm, const QueryFlock& flock,
                            const Database& db, const CostModel& model,
                            unsigned threads) {
  switch (arm.kind) {
    case Strategy::Kind::kPlan: {
      Result<QueryPlan> plan = SearchPlanParameterSets(flock, model);
      if (!plan.ok()) return plan.status();
      PlanExecOptions options;
      options.order_chooser = CostBasedOrderChooser(model.stats());
      return ExecutePlan(*plan, flock, db, options, {.threads = threads});
    }
    case Strategy::Kind::kDirect: {
      FlockEvalOptions options;
      for (const std::vector<std::size_t>& order : arm.orders) {
        CqEvalOptions cq_options;
        cq_options.join_order = order;
        options.per_disjunct.push_back(std::move(cq_options));
      }
      return EvaluateFlock(flock, db, options, {.threads = threads});
    }
    case Strategy::Kind::kDynamic: {
      DynamicOptions options;
      if (!arm.orders.empty()) options.join_order = arm.orders.front();
      options.aggressiveness = arm.knobs.aggressiveness;
      options.improvement_factor = arm.knobs.improvement_factor;
      options.min_removed_fraction = arm.knobs.min_removed_fraction;
      return DynamicEvaluate(flock, db, options, {.threads = threads});
    }
  }
  return Status::Ok();
}

TEST(LearnedDifferentialTest, EveryArmMatchesBaselineAtThreads014) {
  Database db;
  db.PutRelation(GenerateBaskets({.n_baskets = 250, .n_items = 35,
                                  .avg_basket_size = 5, .zipf_theta = 1.1,
                                  .seed = 41}));
  QueryFlock flock =
      Flock("answer(B) :- baskets(B,$1) AND baskets(B,$2) AND $1 < $2",
            FilterCondition::MinSupport(5));
  Result<Relation> baseline = EvaluateFlock(flock, db);
  ASSERT_TRUE(baseline.ok());
  CostModel model(DatabaseStats::Compute(db));
  std::vector<Strategy> arms =
      EnumerateArms(flock, model, /*dynamic_eligible=*/true, DynamicKnobs{});
  ASSERT_GE(arms.size(), 4u);
  for (const Strategy& arm : arms) {
    for (unsigned threads : {0u, 1u, 4u}) {
      Result<Relation> got = ExecuteArm(arm, flock, db, model, threads);
      ASSERT_TRUE(got.ok())
          << arm.id << " threads=" << threads << ": "
          << got.status().ToString();
      got->SortRows();
      EXPECT_EQ(got->rows(), baseline->rows())
          << "arm " << arm.id << " diverged at threads=" << threads;
    }
  }
}

}  // namespace
}  // namespace qf
