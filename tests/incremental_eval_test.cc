// Tests for incremental flock evaluation (flocks/incremental_eval.h) and
// its shell integration: decision strings, invalidation (replace /
// negation / threshold / budget), exactness against the direct evaluator
// at several thread counts, SHOW FLOCK STATE / EXPLAIN ANALYZE
// observability, catalog reopen, and quick differential delta-replay
// schedules (the slow sweep lives in incremental_stress_test.cc).
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>

#include "common/vfs.h"
#include "flocks/eval.h"
#include "flocks/incremental_eval.h"
#include "incremental_diff_harness.h"
#include "relational/database.h"
#include "relational/tsv.h"
#include "shell/shell.h"

namespace qf {
namespace {

std::string MustRun(Shell& shell, const std::string& stmt) {
  Result<std::string> out = shell.Execute(stmt);
  EXPECT_TRUE(out.ok()) << out.status().ToString() << " for: " << stmt;
  return out.ok() ? *out : std::string();
}

// The "(MODE)" tag of a RUN/EXPLAIN ANALYZE first line.
std::string RunMode(const std::string& out) {
  std::size_t nl = out.find('\n');
  std::string first = nl == std::string::npos ? out : out.substr(0, nl);
  // The mode tag is the trailing " (MODE)" group; the mode itself may
  // contain parentheses ("INCREMENTAL:delta(+3 rows)").
  std::size_t open = first.rfind(" (");
  if (open == std::string::npos || first.back() != ')') return "";
  return first.substr(open + 2, first.size() - open - 3);
}

void SeedBaskets(Shell& shell) {
  MustRun(shell,
          "GEN BASKETS baskets n_baskets=60 n_items=12 avg_size=5 "
          "theta=0.8 locality=0.5 topics=4 seed=11");
}

void DeclarePairs(Shell& shell, int support) {
  MustRun(shell,
          "FLOCK pairs QUERY answer(B) :- baskets(B,$1) AND baskets(B,$2) "
          "AND $1 < $2 FILTER COUNT >= " +
              std::to_string(support));
}

// Writes a small baskets TSV plus a delta into `vfs`.
void StoreBasketsTsv(MemVfs& vfs) {
  Relation base("baskets", Schema({"BID", "Item"}));
  for (int b = 1; b <= 3; ++b) {
    base.AddRow({Value(b), Value("beer")});
    base.AddRow({Value(b), Value("diapers")});
  }
  base.AddRow({Value(4), Value("beer")});
  ASSERT_TRUE(StoreTsv(base, "base.tsv", &vfs).ok());
  Relation delta("delta", Schema({"BID", "Item"}));
  delta.AddRow({Value(4), Value("diapers")});
  delta.AddRow({Value(5), Value("beer")});
  delta.AddRow({Value(5), Value("diapers")});
  ASSERT_TRUE(StoreTsv(delta, "delta.tsv", &vfs).ok());
}

// --- shell decision lifecycle ---

TEST(IncrementalShellTest, BuildCachedDeltaLifecycle) {
  MemVfs vfs;
  StoreBasketsTsv(vfs);
  Shell subject, oracle;
  subject.set_vfs(&vfs);
  oracle.set_vfs(&vfs);
  for (Shell* s : {&subject, &oracle}) {
    MustRun(*s, "LOAD baskets FROM base.tsv");
    MustRun(*s,
            "FLOCK pairs QUERY answer(B) :- baskets(B,$1) AND "
            "baskets(B,$2) AND $1 < $2 FILTER COUNT >= 2");
  }
  MustRun(subject, "SET INCREMENTAL ON");

  std::string s1 = MustRun(subject, "RUN pairs LIMIT 100");
  EXPECT_EQ(RunMode(s1), "INCREMENTAL:build");
  std::string s2 = MustRun(subject, "RUN pairs LIMIT 100");
  EXPECT_EQ(RunMode(s2), "INCREMENTAL:cached");
  EXPECT_EQ(NormalizeRunOutput(s1), NormalizeRunOutput(s2));

  std::string appended = MustRun(subject, "LOAD baskets APPEND FROM delta.tsv");
  EXPECT_NE(appended.find("appended baskets: +3 rows"), std::string::npos);
  EXPECT_NE(appended.find("epoch 1"), std::string::npos);
  std::string s3 = MustRun(subject, "RUN pairs LIMIT 100");
  EXPECT_EQ(RunMode(s3), "INCREMENTAL:delta(+3 rows)");

  // Oracle recomputes from scratch over the same appended data.
  MustRun(oracle, "LOAD baskets APPEND FROM delta.tsv");
  std::string o3 = MustRun(oracle, "RUN pairs LIMIT 100");
  EXPECT_EQ(NormalizeRunOutput(s3), NormalizeRunOutput(o3));

  const IncrementalFlockState* st = subject.incremental().state("pairs");
  ASSERT_NE(st, nullptr);
  EXPECT_EQ(st->full_builds, 1u);
  EXPECT_EQ(st->delta_batches, 1u);
  EXPECT_EQ(st->served_cached, 1u);
}

TEST(IncrementalShellTest, EmptyDeltaBatchServesDelta) {
  MemVfs vfs;
  StoreBasketsTsv(vfs);
  Shell shell;
  shell.set_vfs(&vfs);
  MustRun(shell, "LOAD baskets FROM base.tsv");
  MustRun(shell, "SET INCREMENTAL ON");
  DeclarePairs(shell, 2);
  MustRun(shell, "RUN pairs");
  // Re-appending rows already present dedups to an empty batch; the
  // state still absorbs it (epoch advances, counts unchanged).
  std::string appended = MustRun(shell, "LOAD baskets APPEND FROM base.tsv");
  EXPECT_NE(appended.find("+0 rows"), std::string::npos);
  std::string out = MustRun(shell, "RUN pairs");
  EXPECT_EQ(RunMode(out), "INCREMENTAL:delta(+0 rows)");
}

TEST(IncrementalShellTest, ThresholdMetamorphic) {
  // The state holds every group's exact aggregate, so any threshold or
  // comparison over the same aggregate is served from it; a different
  // aggregate rebuilds. Every answer matches a from-scratch oracle shell.
  Shell subject, oracle;
  SeedBaskets(subject);
  SeedBaskets(oracle);
  MustRun(subject, "SET INCREMENTAL ON");
  auto declare = [&](const std::string& filter) {
    for (Shell* s : {&subject, &oracle}) {
      MustRun(*s,
              "FLOCK pairs QUERY answer(B) :- baskets(B,$1) AND "
              "baskets(B,$2) AND $1 < $2 FILTER " +
                  filter);
    }
  };
  auto run = [&](const std::string& want_mode) {
    std::string s = MustRun(subject, "RUN pairs LIMIT 100000");
    EXPECT_EQ(RunMode(s), want_mode);
    EXPECT_EQ(NormalizeRunOutput(s),
              NormalizeRunOutput(MustRun(oracle, "RUN pairs LIMIT 100000")));
    const IncrementalFlockState* st = subject.incremental().state("pairs");
    ASSERT_NE(st, nullptr);
    EXPECT_EQ(st->full_builds, 1u);
  };

  declare("COUNT >= 4");
  run("INCREMENTAL:build");
  declare("COUNT >= 7");  // tighten
  run("INCREMENTAL:cached");
  declare("COUNT >= 2");  // loosen below the built threshold
  run("INCREMENTAL:cached");
  declare("COUNT > 2");  // another comparison
  run("INCREMENTAL:cached");
  EXPECT_EQ(subject.incremental().state("pairs")->served_cached, 3u);

  // Another aggregate: the cached COUNTs cannot serve a MAX.
  declare("MAX(B) >= 30");
  run("INCREMENTAL:rebuild(definition)");
}

TEST(IncrementalShellTest, QueryChangeRebuildsAsDefinition) {
  Shell shell;
  SeedBaskets(shell);
  MustRun(shell, "SET INCREMENTAL ON");
  DeclarePairs(shell, 4);
  MustRun(shell, "RUN pairs");
  MustRun(shell,
          "FLOCK pairs QUERY answer(B) :- baskets(B,$1) "
          "FILTER COUNT >= 4");
  std::string out = MustRun(shell, "RUN pairs");
  EXPECT_EQ(RunMode(out), "INCREMENTAL:rebuild(definition)");
}

TEST(IncrementalShellTest, FullReloadRebuildsViaLineage) {
  MemVfs vfs;
  StoreBasketsTsv(vfs);
  Shell shell;
  shell.set_vfs(&vfs);
  MustRun(shell, "LOAD baskets FROM base.tsv");
  MustRun(shell, "SET INCREMENTAL ON");
  DeclarePairs(shell, 2);
  MustRun(shell, "RUN pairs");
  // A whole-relation LOAD severs the append chain: the old handle is no
  // longer an ancestor of the new one, so the state must rebuild.
  MustRun(shell, "LOAD baskets FROM base.tsv");
  std::string out = MustRun(shell, "RUN pairs");
  EXPECT_EQ(RunMode(out), "INCREMENTAL:rebuild(lineage)");
}

TEST(IncrementalShellTest, NegatedRelationChangeRebuilds) {
  MemVfs vfs;
  Relation people("people", Schema({"P", "Item"}));
  people.AddRow({Value(1), Value("beer")});
  people.AddRow({Value(2), Value("beer")});
  people.AddRow({Value(2), Value("wine")});
  ASSERT_TRUE(StoreTsv(people, "people.tsv", &vfs).ok());
  Relation blocked("blocked", Schema({"P"}));
  blocked.AddRow({Value(3)});
  ASSERT_TRUE(StoreTsv(blocked, "blocked.tsv", &vfs).ok());
  Relation more("more", Schema({"P"}));
  more.AddRow({Value(2)});
  ASSERT_TRUE(StoreTsv(more, "more.tsv", &vfs).ok());

  Shell subject, oracle;
  subject.set_vfs(&vfs);
  oracle.set_vfs(&vfs);
  for (Shell* s : {&subject, &oracle}) {
    MustRun(*s, "LOAD people FROM people.tsv");
    MustRun(*s, "LOAD blocked FROM blocked.tsv");
    MustRun(*s,
            "FLOCK open QUERY answer(P) :- people(P,$1) AND NOT blocked(P) "
            "FILTER COUNT >= 1");
  }
  MustRun(subject, "SET INCREMENTAL ON");
  std::string s1 = MustRun(subject, "RUN open LIMIT 100");
  EXPECT_EQ(RunMode(s1), "INCREMENTAL:build");
  EXPECT_EQ(NormalizeRunOutput(s1),
            NormalizeRunOutput(MustRun(oracle, "RUN open LIMIT 100")));

  // Appending to the negated relation *removes* answers: non-monotone,
  // so the delta path must refuse and rebuild.
  MustRun(subject, "LOAD blocked APPEND FROM more.tsv");
  MustRun(oracle, "LOAD blocked APPEND FROM more.tsv");
  std::string s2 = MustRun(subject, "RUN open LIMIT 100");
  EXPECT_EQ(RunMode(s2), "INCREMENTAL:rebuild(negated)");
  EXPECT_EQ(NormalizeRunOutput(s2),
            NormalizeRunOutput(MustRun(oracle, "RUN open LIMIT 100")));
}

TEST(IncrementalShellTest, ViewFlockFallsBackUncached) {
  Shell shell;
  SeedBaskets(shell);
  MustRun(shell, "SET INCREMENTAL ON");
  MustRun(shell, "DEFINE bought(B,I) :- baskets(B,I)");
  MustRun(shell,
          "FLOCK vb QUERY answer(B) :- bought(B,$1) FILTER COUNT >= 4");
  std::string out = MustRun(shell, "RUN vb");
  // Not served incrementally: the ordinary mode tag shows instead.
  EXPECT_EQ(out.find("INCREMENTAL"), std::string::npos);
  EXPECT_EQ(shell.incremental().state("vb"), nullptr);
  std::string ea = MustRun(shell, "EXPLAIN ANALYZE vb");
  EXPECT_NE(ea.find("unsupported(view:bought)"), std::string::npos);
}

TEST(IncrementalShellTest, NonIntegralSumFallsBack) {
  MemVfs vfs;
  Relation sales("sales", Schema({"BID", "Item", "W"}));
  sales.AddRow({Value(1), Value("beer"), Value(1.5)});
  sales.AddRow({Value(2), Value("beer"), Value(2.25)});
  ASSERT_TRUE(StoreTsv(sales, "sales.tsv", &vfs).ok());
  Shell subject, oracle;
  subject.set_vfs(&vfs);
  oracle.set_vfs(&vfs);
  for (Shell* s : {&subject, &oracle}) {
    MustRun(*s, "LOAD sales FROM sales.tsv");
    MustRun(*s,
            "FLOCK rev QUERY answer(B,W) :- sales(B,$1,W) "
            "FILTER SUM(W) >= 1");
  }
  MustRun(subject, "SET INCREMENTAL ON");
  std::string s1 = MustRun(subject, "RUN rev LIMIT 100");
  // Non-integral summands: nothing cached, full evaluation owns the run.
  EXPECT_EQ(s1.find("INCREMENTAL"), std::string::npos);
  EXPECT_EQ(subject.incremental().state("rev"), nullptr);
  EXPECT_EQ(NormalizeRunOutput(s1),
            NormalizeRunOutput(MustRun(oracle, "RUN rev LIMIT 100")));
  EXPECT_EQ(MustRun(subject, "SHOW FLOCK STATE"), "no incremental state\n");
  std::string ea = MustRun(subject, "EXPLAIN ANALYZE rev");
  EXPECT_NE(ea.find("unsupported(sum-inexact)"), std::string::npos) << ea;
  EXPECT_EQ(MustRun(subject, "SHOW FLOCK STATE"), "no incremental state\n");
}

TEST(IncrementalShellTest, NonIntegralSumInDeltaDropsState) {
  MemVfs vfs;
  Relation sales("sales", Schema({"BID", "Item", "W"}));
  sales.AddRow({Value(1), Value("beer"), Value(3)});
  sales.AddRow({Value(2), Value("beer"), Value(4)});
  ASSERT_TRUE(StoreTsv(sales, "sales.tsv", &vfs).ok());
  Relation delta("delta", Schema({"BID", "Item", "W"}));
  delta.AddRow({Value(3), Value("beer"), Value(0.5)});
  ASSERT_TRUE(StoreTsv(delta, "delta.tsv", &vfs).ok());

  Shell subject, oracle;
  subject.set_vfs(&vfs);
  oracle.set_vfs(&vfs);
  for (Shell* s : {&subject, &oracle}) {
    MustRun(*s, "LOAD sales FROM sales.tsv");
    MustRun(*s,
            "FLOCK rev QUERY answer(B,W) :- sales(B,$1,W) "
            "FILTER SUM(W) >= 5");
  }
  MustRun(subject, "SET INCREMENTAL ON");
  EXPECT_EQ(RunMode(MustRun(subject, "RUN rev LIMIT 100")),
            "INCREMENTAL:build");
  ASSERT_NE(subject.incremental().state("rev"), nullptr);

  // The delta's weight is non-integral: the state is dropped and the
  // full evaluation owns the run.
  MustRun(subject, "LOAD sales APPEND FROM delta.tsv");
  MustRun(oracle, "LOAD sales APPEND FROM delta.tsv");
  std::string ea = MustRun(subject, "EXPLAIN ANALYZE rev");
  EXPECT_NE(ea.find("unsupported(sum-inexact)"), std::string::npos) << ea;
  EXPECT_EQ(ea.find("INCREMENTAL:"), std::string::npos) << ea;
  EXPECT_EQ(MustRun(subject, "SHOW FLOCK STATE"), "no incremental state\n");
  std::string s2 = MustRun(subject, "RUN rev LIMIT 100");
  EXPECT_EQ(s2.find("INCREMENTAL"), std::string::npos);
  EXPECT_EQ(NormalizeRunOutput(s2),
            NormalizeRunOutput(MustRun(oracle, "RUN rev LIMIT 100")));
  EXPECT_EQ(MustRun(subject, "SHOW FLOCK STATE"), "no incremental state\n");
}

TEST(IncrementalShellTest, IntegralSumServesIncrementally) {
  MemVfs vfs;
  Relation sales("sales", Schema({"BID", "Item", "W"}));
  sales.AddRow({Value(1), Value("beer"), Value(3)});
  sales.AddRow({Value(2), Value("beer"), Value(4)});
  sales.AddRow({Value(2), Value("wine"), Value(1)});
  ASSERT_TRUE(StoreTsv(sales, "sales.tsv", &vfs).ok());
  Relation delta("delta", Schema({"BID", "Item", "W"}));
  delta.AddRow({Value(3), Value("wine"), Value(9)});
  ASSERT_TRUE(StoreTsv(delta, "delta.tsv", &vfs).ok());

  Shell subject, oracle;
  subject.set_vfs(&vfs);
  oracle.set_vfs(&vfs);
  for (Shell* s : {&subject, &oracle}) {
    MustRun(*s, "LOAD sales FROM sales.tsv");
    MustRun(*s,
            "FLOCK rev QUERY answer(B,W) :- sales(B,$1,W) "
            "FILTER SUM(W) >= 5");
  }
  MustRun(subject, "SET INCREMENTAL ON");
  std::string s1 = MustRun(subject, "RUN rev LIMIT 100");
  EXPECT_EQ(RunMode(s1), "INCREMENTAL:build");
  MustRun(subject, "LOAD sales APPEND FROM delta.tsv");
  MustRun(oracle, "LOAD sales APPEND FROM delta.tsv");
  std::string s2 = MustRun(subject, "RUN rev LIMIT 100");
  EXPECT_EQ(RunMode(s2), "INCREMENTAL:delta(+1 rows)");
  EXPECT_EQ(NormalizeRunOutput(s2),
            NormalizeRunOutput(MustRun(oracle, "RUN rev LIMIT 100")));
}

TEST(IncrementalShellTest, ShowFlockState) {
  Shell shell;
  SeedBaskets(shell);
  MustRun(shell, "SET INCREMENTAL ON");
  EXPECT_EQ(MustRun(shell, "SHOW FLOCK STATE"), "no incremental state\n");
  DeclarePairs(shell, 4);
  MustRun(shell, "RUN pairs");
  std::string all = MustRun(shell, "SHOW FLOCK STATE");
  EXPECT_NE(all.find("flock pairs:"), std::string::npos);
  EXPECT_NE(all.find("decisions: builds=1 deltas=0 cached=0"),
            std::string::npos);
  std::string one = MustRun(shell, "SHOW FLOCK STATE pairs");
  EXPECT_NE(one.find("built filter: COUNT"), std::string::npos);
  EXPECT_NE(one.find("base baskets:"), std::string::npos);
  Result<std::string> missing = shell.Execute("SHOW FLOCK STATE nope");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
}

TEST(IncrementalShellTest, ExplainAnalyzeShowsDecisionAndDeltas) {
  MemVfs vfs;
  StoreBasketsTsv(vfs);
  Shell shell;
  shell.set_vfs(&vfs);
  MustRun(shell, "LOAD baskets FROM base.tsv");
  MustRun(shell, "SET INCREMENTAL ON");
  DeclarePairs(shell, 2);
  std::string ea1 = MustRun(shell, "EXPLAIN ANALYZE pairs");
  EXPECT_NE(ea1.find("INCREMENTAL:build"), std::string::npos);
  EXPECT_NE(ea1.find("incremental"), std::string::npos);
  MustRun(shell, "LOAD baskets APPEND FROM delta.tsv");
  std::string ea2 = MustRun(shell, "EXPLAIN ANALYZE pairs");
  EXPECT_NE(ea2.find("INCREMENTAL:delta(+3 rows)"), std::string::npos);
  // The metrics tree carries one "delta" child naming the changed
  // relation with its delta row count.
  EXPECT_NE(ea2.find("delta"), std::string::npos);
  EXPECT_NE(ea2.find("baskets"), std::string::npos);
}

TEST(IncrementalShellTest, BuildRunStreamsIntoTheState) {
  MemVfs vfs;
  StoreBasketsTsv(vfs);
  Shell shell;
  shell.set_vfs(&vfs);
  MustRun(shell, "LOAD baskets FROM base.tsv");
  MustRun(shell, "SET INCREMENTAL ON");
  DeclarePairs(shell, 2);
  // Build and delta runs alike stream their final join into the state:
  // no select or project node materializes the answer rows.
  for (const char* stmt : {"EXPLAIN ANALYZE pairs",
                           "LOAD baskets APPEND FROM delta.tsv",
                           "EXPLAIN ANALYZE pairs"}) {
    std::string out = MustRun(shell, stmt);
    if (out.rfind("appended", 0) == 0) continue;
    EXPECT_NE(out.find("join baskets [stream]"), std::string::npos) << out;
    std::size_t at = 0;
    while (at < out.size()) {
      std::size_t nl = out.find('\n', at);
      std::string line = out.substr(at, nl == std::string::npos
                                            ? std::string::npos
                                            : nl - at);
      line.erase(0, line.find_first_not_of(' '));
      EXPECT_NE(line.rfind("select", 0), 0u) << out;
      EXPECT_NE(line.rfind("project", 0), 0u) << out;
      if (nl == std::string::npos) break;
      at = nl + 1;
    }
  }
}

TEST(IncrementalShellTest, SetIncrementalOffDropsState) {
  Shell shell;
  SeedBaskets(shell);
  MustRun(shell, "SET INCREMENTAL ON");
  DeclarePairs(shell, 4);
  MustRun(shell, "RUN pairs");
  EXPECT_EQ(shell.incremental().state_count(), 1u);
  MustRun(shell, "SET INCREMENTAL OFF");
  EXPECT_EQ(shell.incremental().state_count(), 0u);
  std::string out = MustRun(shell, "RUN pairs");
  EXPECT_EQ(out.find("INCREMENTAL"), std::string::npos);
}

TEST(IncrementalShellTest, CatalogReopenRestoresKnobAndRebuilds) {
  MemVfs vfs;
  StoreBasketsTsv(vfs);
  std::string before;
  {
    Shell shell;
    shell.set_vfs(&vfs);
    MustRun(shell, "OPEN cat");
    MustRun(shell, "LOAD baskets FROM base.tsv");
    MustRun(shell, "SET INCREMENTAL ON");
    DeclarePairs(shell, 2);
    MustRun(shell, "LOAD baskets APPEND FROM delta.tsv");
    before = NormalizeRunOutput(MustRun(shell, "RUN pairs LIMIT 100"));
  }
  Shell reopened;
  reopened.set_vfs(&vfs);
  MustRun(reopened, "OPEN cat");
  // The WAL replays the knob; the cached state is in-memory only, so the
  // first RUN after reopen is a fresh build with identical results.
  EXPECT_TRUE(reopened.incremental_on());
  EXPECT_EQ(reopened.incremental().state_count(), 0u);
  std::string after = MustRun(reopened, "RUN pairs LIMIT 100");
  EXPECT_EQ(RunMode(after), "INCREMENTAL:build");
  EXPECT_EQ(NormalizeRunOutput(after), before);
}

TEST(IncrementalShellTest, CatalogAppendsCountEpochsAcrossReplay) {
  MemVfs vfs;
  StoreBasketsTsv(vfs);
  {
    Shell shell;
    shell.set_vfs(&vfs);
    MustRun(shell, "OPEN cat");
    MustRun(shell, "LOAD baskets FROM base.tsv");
    EXPECT_NE(MustRun(shell, "LOAD baskets APPEND FROM delta.tsv")
                  .find("+3 rows (10 total, epoch 1)"),
              std::string::npos);
    EXPECT_NE(MustRun(shell, "LOAD baskets APPEND FROM delta.tsv")
                  .find("+0 rows (10 total, epoch 2)"),
              std::string::npos);
  }
  // The append records replay through AppendRelation, epochs included.
  Shell shell;
  shell.set_vfs(&vfs);
  MustRun(shell, "OPEN cat");
  EXPECT_EQ(shell.database().Get("baskets").epoch(), 2u);
  EXPECT_NE(MustRun(shell, "LOAD baskets APPEND FROM delta.tsv")
                .find("(10 total, epoch 3)"),
            std::string::npos);
  // A snapshot stores rows only: after CHECKPOINT the count restarts.
  MustRun(shell, "CHECKPOINT");
  MustRun(shell, "OPEN cat");
  EXPECT_NE(MustRun(shell, "LOAD baskets APPEND FROM delta.tsv")
                .find("(10 total, epoch 1)"),
            std::string::npos);
}

TEST(IncrementalShellTest, AppendRequiresExistingRelation) {
  MemVfs vfs;
  StoreBasketsTsv(vfs);
  Shell shell;
  shell.set_vfs(&vfs);
  Result<std::string> out =
      shell.Execute("LOAD baskets APPEND FROM delta.tsv");
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(out.status().message().find("needs an existing relation"),
            std::string::npos);
}

// --- API-level decision and differential coverage ---

Database ApiBaskets() {
  Database db;
  Relation r("baskets", Schema({"BID", "Item"}));
  for (int b = 1; b <= 6; ++b) {
    r.AddRow({Value(b), Value(b % 3)});
    r.AddRow({Value(b), Value(3 + b % 2)});
    r.AddRow({Value(b), Value(5)});
  }
  db.PutRelation(std::move(r));
  return db;
}

QueryFlock ApiPairs(int support) {
  auto f = MakeFlock(
      "answer(B) :- baskets(B,$1) AND baskets(B,$2) AND $1 < $2",
      FilterCondition::MinSupport(support));
  EXPECT_TRUE(f.ok()) << f.status().ToString();
  return *f;
}

// Applies `delta` rows to db's `name` relation through AppendRelation and
// records the lineage link, mirroring the shell's LOAD ... APPEND.
void ApiAppend(IncrementalEvaluator& inc, Database& db,
               const std::string& name, const Relation& delta) {
  std::shared_ptr<const Relation> old = db.GetShared(name);
  Result<Relation> merged = AppendRelation(*old, delta);
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  db.PutRelation(std::move(*merged));
  inc.RecordAppend(name, std::move(old), db.GetShared(name));
}

TEST(IncrementalEvalApiTest, DifferentialAcrossThreadCounts) {
  std::map<std::string, Relation> no_views;
  for (unsigned threads : {0u, 1u, 4u}) {
    Database db = ApiBaskets();
    IncrementalEvaluator inc;
    QueryFlock flock = ApiPairs(3);
    const ExecEnv env{.threads = threads};
    for (int step = 0; step < 6; ++step) {
      Relation delta("d", Schema({"BID", "Item"}));
      delta.AddRow({Value(10 + step), Value(step % 4)});
      delta.AddRow({Value(10 + step), Value(5)});
      delta.AddRow({Value(1 + step % 6), Value(5)});  // duplicate row
      ApiAppend(inc, db, "baskets", delta);

      Relation served;
      IncrementalRunInfo info;
      Status s = inc.Run("pairs", flock, db, no_views, {}, env, &served, &info);
      ASSERT_TRUE(s.ok()) << s.ToString();
      ASSERT_TRUE(info.served) << info.decision;
      Result<Relation> direct = EvaluateFlock(
          flock, db, {}, {.threads = threads});
      ASSERT_TRUE(direct.ok()) << direct.status().ToString();
      EXPECT_EQ(served.schema().columns(), direct->schema().columns());
      EXPECT_EQ(served.rows(), direct->rows())
          << "threads=" << threads << " step=" << step
          << " decision=" << info.decision;
      if (step > 0) {
        EXPECT_EQ(info.decision.rfind("delta(", 0), 0u) << info.decision;
      }
    }
  }
}

TEST(IncrementalEvalApiTest, BudgetEvictsBeforeBuildAndOnDeltas) {
  std::map<std::string, Relation> no_views;
  Database db = ApiBaskets();
  IncrementalEvaluator inc;
  QueryFlock flock = ApiPairs(2);
  Relation served;
  IncrementalRunInfo info;

  // A 1-byte budget cannot hold any state: nothing is cached.
  ASSERT_TRUE(
      inc.Run("pairs", flock, db, no_views, 1, {}, &served, &info).ok());
  EXPECT_FALSE(info.served);
  EXPECT_EQ(info.decision, "evicted(budget)");
  EXPECT_EQ(inc.state("pairs"), nullptr);

  // A generous budget builds; a later shrink evicts on the delta path.
  ASSERT_TRUE(
      inc.Run("pairs", flock, db, no_views, 1 << 20, {}, &served, &info).ok());
  EXPECT_TRUE(info.served);
  EXPECT_EQ(info.decision, "build");
  ASSERT_NE(inc.state("pairs"), nullptr);

  Relation delta("d", Schema({"BID", "Item"}));
  delta.AddRow({Value(50), Value(5)});
  ApiAppend(inc, db, "baskets", delta);
  ASSERT_TRUE(
      inc.Run("pairs", flock, db, no_views, 1, {}, &served, &info).ok());
  EXPECT_FALSE(info.served);
  EXPECT_EQ(info.decision, "evicted(budget)");
  EXPECT_EQ(inc.state("pairs"), nullptr);
}

TEST(IncrementalEvalApiTest, UnsupportedShapes) {
  std::map<std::string, Relation> views;
  Database db = ApiBaskets();
  IncrementalEvaluator inc;
  Relation served;
  IncrementalRunInfo info;

  // Non-monotone filter (COUNT <= n): never served.
  auto nm = MakeFlock("answer(B) :- baskets(B,$1)",
                      {FilterAgg::kCount, CompareOp::kLe, 5, 0});
  ASSERT_TRUE(nm.ok());
  ASSERT_TRUE(inc.Run("nm", *nm, db, views, 0, {}, &served, &info).ok());
  EXPECT_FALSE(info.served);
  EXPECT_EQ(info.decision, "unsupported(non-monotone)");

  // Missing predicate: the full evaluator owns the (error) statement.
  QueryFlock missing = *MakeFlock("answer(B) :- shelves(B,$1)",
                                  FilterCondition::MinSupport(2));
  ASSERT_TRUE(
      inc.Run("m", missing, db, views, 0, {}, &served, &info).ok());
  EXPECT_FALSE(info.served);
  EXPECT_EQ(info.decision, "unsupported(missing:shelves)");

  // View predicate: uncached, and an existing state is dropped.
  views.emplace("baskets", Relation("baskets", Schema({"BID", "Item"})));
  QueryFlock pairs = ApiPairs(2);
  ASSERT_TRUE(
      inc.Run("pairs", pairs, db, views, 0, {}, &served, &info).ok());
  EXPECT_FALSE(info.served);
  EXPECT_EQ(info.decision, "unsupported(view:baskets)");
}

TEST(IncrementalEvalApiTest, MultiRelationAndMultiOccurrenceDeltas) {
  // Two changed relations in one run, plus a predicate occurring twice in
  // the CQ (each positive occurrence gets its own delta rewrite).
  std::map<std::string, Relation> no_views;
  Database db;
  Relation b("baskets", Schema({"BID", "Item"}));
  b.AddRow({Value(1), Value(1)});
  b.AddRow({Value(1), Value(2)});
  b.AddRow({Value(2), Value(1)});
  db.PutRelation(std::move(b));
  Relation p("promo", Schema({"Item"}));
  p.AddRow({Value(1)});
  db.PutRelation(std::move(p));

  auto flock = MakeFlock(
      "answer(B) :- baskets(B,$1) AND baskets(B,$2) AND promo($1) AND "
      "$1 < $2",
      FilterCondition::MinSupport(1));
  ASSERT_TRUE(flock.ok()) << flock.status().ToString();

  IncrementalEvaluator inc;
  Relation served;
  IncrementalRunInfo info;
  ASSERT_TRUE(
      inc.Run("f", *flock, db, no_views, 0, {}, &served, &info).ok());
  ASSERT_TRUE(info.served);

  Relation db_delta("d", Schema({"BID", "Item"}));
  db_delta.AddRow({Value(2), Value(3)});
  db_delta.AddRow({Value(3), Value(2)});
  db_delta.AddRow({Value(3), Value(3)});
  ApiAppend(inc, db, "baskets", db_delta);
  Relation promo_delta("d", Schema({"Item"}));
  promo_delta.AddRow({Value(2)});
  ApiAppend(inc, db, "promo", promo_delta);

  ASSERT_TRUE(
      inc.Run("f", *flock, db, no_views, 0, {}, &served, &info).ok());
  ASSERT_TRUE(info.served) << info.decision;
  EXPECT_EQ(info.decision, "delta(+4 rows)");
  ASSERT_EQ(info.delta_rows.size(), 2u);
  Result<Relation> direct = EvaluateFlock(*flock, db);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(served.rows(), direct->rows());
}

TEST(IncrementalEvalApiTest, UnrelatedRelationChangeStaysCached) {
  std::map<std::string, Relation> no_views;
  Database db = ApiBaskets();
  IncrementalEvaluator inc;
  QueryFlock flock = ApiPairs(2);
  Relation served;
  IncrementalRunInfo info;
  ASSERT_TRUE(
      inc.Run("pairs", flock, db, no_views, 0, {}, &served, &info).ok());
  // Mutating a relation the flock never reads must not invalidate: the
  // generation probe misses but the per-mark handles all match.
  Relation other("other", Schema({"X"}));
  other.AddRow({Value(1)});
  db.PutRelation(std::move(other));
  ASSERT_TRUE(
      inc.Run("pairs", flock, db, no_views, 0, {}, &served, &info).ok());
  EXPECT_TRUE(info.served);
  EXPECT_EQ(info.decision, "cached");
  // And the refreshed generation makes the next probe cheap again.
  ASSERT_NE(inc.state("pairs"), nullptr);
  EXPECT_EQ(inc.state("pairs")->last_generation(), db.generation());
}

TEST(IncrementalEvalApiTest, AppendChainsReleaseDeadVersions) {
  std::map<std::string, Relation> no_views;
  Database db = ApiBaskets();
  IncrementalEvaluator inc;
  QueryFlock flock = ApiPairs(2);
  Relation delta("d", Schema({"BID", "Item"}));
  delta.AddRow({Value(20), Value(5)});
  // With no state, no walk can start anywhere: the link goes at once.
  std::weak_ptr<const Relation> v0 = db.GetShared("baskets");
  ApiAppend(inc, db, "baskets", delta);
  EXPECT_TRUE(v0.expired());

  Relation served;
  IncrementalRunInfo info;
  ASSERT_TRUE(
      inc.Run("pairs", flock, db, no_views, {}, {}, &served, &info).ok());
  EXPECT_EQ(info.decision, "build");
  // A lagging state keeps every version from its mark on...
  std::weak_ptr<const Relation> v1 = db.GetShared("baskets");
  for (int bid : {21, 22}) {
    delta.mutable_rows()[0][0] = Value(bid);
    ApiAppend(inc, db, "baskets", delta);
  }
  std::weak_ptr<const Relation> v2 = db.GetShared("baskets");
  delta.mutable_rows()[0][0] = Value(23);
  ApiAppend(inc, db, "baskets", delta);
  EXPECT_FALSE(v1.expired());
  EXPECT_FALSE(v2.expired());
  // ...until it absorbs them; then only the current version stays.
  ASSERT_TRUE(
      inc.Run("pairs", flock, db, no_views, {}, {}, &served, &info).ok());
  EXPECT_EQ(info.decision, "delta(+3 rows)");
  EXPECT_TRUE(v1.expired());
  EXPECT_TRUE(v2.expired());
}

// --- quick differential schedules (the full sweep is the slow suite) ---

TEST(IncrementalDiffTest, QuickScheduleInMemory) {
  DiffScheduleOptions opts;
  opts.seed = 42;
  opts.steps = 18;
  DeltaReplayHarness h(opts);
  h.RunSchedule();
  EXPECT_GT(h.runs_compared(), 0);
}

TEST(IncrementalDiffTest, QuickScheduleThreaded) {
  DiffScheduleOptions opts;
  opts.seed = 7;
  opts.steps = 15;
  opts.threads = 4;
  DeltaReplayHarness h(opts);
  h.RunSchedule();
}

TEST(IncrementalDiffTest, QuickScheduleWithCatalog) {
  DiffScheduleOptions opts;
  opts.seed = 19;
  opts.steps = 15;
  opts.use_catalog = true;
  DeltaReplayHarness h(opts);
  h.RunSchedule();
}

TEST(IncrementalDiffTest, QuickScheduleUnderMemoryBudget) {
  DiffScheduleOptions opts;
  opts.seed = 23;
  opts.steps = 12;
  opts.memory_mb = 64;  // generous enough to pass, exercises the checks
  DeltaReplayHarness h(opts);
  h.RunSchedule();
}

// --- pooled state budget: retention priority under pressure ---

// Three same-shape flocks whose states are the same size. The budget
// holds two. The hot flock is re-served between the cold builds, so when
// the third state needs room the evaluator must evict the cold one —
// least-recently-served — never the hot one.
TEST(IncrementalEvictionTest, HotFlockSurvivesColdPressure) {
  Database db;
  for (const char* rel : {"hot_r", "cold1_r", "cold2_r"}) {
    Relation r(rel, Schema({"BID", "Item"}));
    for (int b = 0; b < 40; ++b) {
      r.AddRow({Value(b), Value("x" + std::to_string(b % 7))});
    }
    db.PutRelation(std::move(r));
  }
  auto flock_for = [](const std::string& rel) {
    Result<QueryFlock> f = MakeFlock("answer(B) :- " + rel + "(B,$1)",
                                     FilterCondition::MinSupport(1));
    EXPECT_TRUE(f.ok()) << f.status().ToString();
    return *f;
  };
  QueryFlock hot = flock_for("hot_r");
  QueryFlock cold1 = flock_for("cold1_r");
  QueryFlock cold2 = flock_for("cold2_r");

  IncrementalEvaluator inc;
  std::map<std::string, Relation> views;
  Relation result;
  IncrementalRunInfo info;
  std::uint64_t budget = 0;  // unlimited for the sizing run

  ASSERT_TRUE(inc.Run("hot", hot, db, views, budget, {}, &result, &info).ok());
  ASSERT_TRUE(info.served);
  ASSERT_NE(inc.state("hot"), nullptr);
  std::uint64_t one = inc.state("hot")->ApproxBytes();
  ASSERT_GT(one, 0u);

  // Room for two states, not three.
  budget = 2 * one + one / 2;

  ASSERT_TRUE(inc.Run("hot", hot, db, views, budget, {}, &result, &info).ok());
  EXPECT_EQ(info.decision, "cached");
  ASSERT_TRUE(
      inc.Run("cold1", cold1, db, views, budget, {}, &result, &info).ok());
  ASSERT_TRUE(info.served);
  EXPECT_EQ(inc.budget_evictions(), 0u);  // both fit

  // Touch hot again, then bring in the third state: cold1 must go.
  ASSERT_TRUE(inc.Run("hot", hot, db, views, budget, {}, &result, &info).ok());
  EXPECT_EQ(info.decision, "cached");
  ASSERT_TRUE(
      inc.Run("cold2", cold2, db, views, budget, {}, &result, &info).ok());
  ASSERT_TRUE(info.served);

  EXPECT_EQ(inc.budget_evictions(), 1u);
  EXPECT_NE(inc.state("hot"), nullptr);
  EXPECT_EQ(inc.state("cold1"), nullptr);
  EXPECT_NE(inc.state("cold2"), nullptr);

  // The hot state still serves straight from cache.
  ASSERT_TRUE(inc.Run("hot", hot, db, views, budget, {}, &result, &info).ok());
  EXPECT_EQ(info.decision, "cached");
}

// Only a state that cannot fit in the WHOLE budget by itself is dropped.
TEST(IncrementalEvictionTest, OversizedStateAloneIsEvicted) {
  Database db;
  Relation r("big_r", Schema({"BID", "Item"}));
  for (int b = 0; b < 200; ++b) {
    r.AddRow({Value(b), Value("x" + std::to_string(b))});
  }
  db.PutRelation(std::move(r));
  Result<QueryFlock> flock = MakeFlock("answer(B) :- big_r(B,$1)",
                                       FilterCondition::MinSupport(1));
  ASSERT_TRUE(flock.ok());

  IncrementalEvaluator inc;
  std::map<std::string, Relation> views;
  Relation result;
  IncrementalRunInfo info;
  // A 1-byte budget: nothing fits.
  ASSERT_TRUE(inc.Run("big", *flock, db, views, 1, {}, &result, &info).ok());
  EXPECT_FALSE(info.served);
  EXPECT_EQ(info.decision, "evicted(budget)");
  EXPECT_EQ(inc.state_count(), 0u);
}

}  // namespace
}  // namespace qf
