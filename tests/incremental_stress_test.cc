// Slow stress suites for incremental flock evaluation: the randomized
// delta-replay differential sweep (many seeds x threads x catalog x
// budget), a crash-point sweep where the append/run/checkpoint schedule
// dies at every I/O operation and the recovered catalog must still serve
// incremental results bit-identical to full recomputation, and a
// networked-session differential. Labeled `slow` (tests/CMakeLists.txt):
// the quick subset lives in incremental_eval_test.cc.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/vfs.h"
#include "crash_recovery_harness.h"
#include "incremental_diff_harness.h"
#include "network/client.h"
#include "network/server.h"
#include "relational/tsv.h"
#include "shell/shell.h"

namespace qf {
namespace {

TEST(IncrementalStressTest, ScheduleSweep) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    for (unsigned threads : {1u, 4u}) {
      for (bool catalog : {false, true}) {
        DiffScheduleOptions opts;
        opts.seed = seed * 131 + threads;
        opts.steps = 30;
        opts.threads = threads;
        opts.use_catalog = catalog;
        DeltaReplayHarness h(opts);
        h.RunSchedule();
        ASSERT_FALSE(::testing::Test::HasFailure())
            << "seed " << seed << " threads " << threads << " catalog "
            << catalog;
      }
    }
  }
}

TEST(IncrementalStressTest, ScheduleSweepUnderTightBudgets) {
  // 1 MB easily holds these states, 0 is unlimited; the interesting case
  // is that the *same* schedule passes under every budget, evictions and
  // fallbacks included (the governor also charges the evaluations, so
  // budgets below 1 MB would fail the oracle's full recomputes too).
  for (std::uint64_t budget_mb : {1ull, 4ull}) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      DiffScheduleOptions opts;
      opts.seed = 977 * seed + budget_mb;
      opts.steps = 20;
      opts.memory_mb = budget_mb;
      DeltaReplayHarness h(opts);
      h.RunSchedule();
      ASSERT_FALSE(::testing::Test::HasFailure())
          << "budget " << budget_mb << " seed " << seed;
    }
  }
}

// --- crash sweep: the incremental schedule dies at every I/O op ---

// The statement schedule the crash sweep replays through a faulting vfs.
// Every mutation rides the catalog WAL; RUNs exercise build and delta
// transitions between crash points, the last delta served under a
// changed threshold.
std::vector<std::string> CrashSchedule() {
  return {
      "OPEN cat",
      "LOAD baskets FROM base.tsv",
      "SET INCREMENTAL ON",
      "FLOCK pairs QUERY answer(B) :- baskets(B,$1) AND baskets(B,$2) AND "
      "$1 < $2 FILTER COUNT >= 2",
      "RUN pairs LIMIT 100000",
      "LOAD baskets APPEND FROM d0.tsv",
      "RUN pairs LIMIT 100000",
      "CHECKPOINT",
      "LOAD baskets APPEND FROM d1.tsv",
      "FLOCK pairs QUERY answer(B) :- baskets(B,$1) AND baskets(B,$2) AND "
      "$1 < $2 FILTER COUNT >= 3",
      "RUN pairs LIMIT 100000",
  };
}

// Seeds base.tsv / d0.tsv / d1.tsv into `vfs` (the real mined workload's
// baskets plus two small overlapping deltas).
void SeedCrashTsvs(Vfs& vfs) {
  Relation baskets = CrashTestBaskets();
  ASSERT_TRUE(StoreTsv(baskets, "base.tsv", &vfs).ok());
  Relation d0("d", Schema(baskets.schema()));
  d0.Add(baskets.rows()[0]);  // duplicate: dedups away
  d0.AddRow({Value(100), Value(1)});
  d0.AddRow({Value(100), Value(2)});
  ASSERT_TRUE(StoreTsv(d0, "d0.tsv", &vfs).ok());
  Relation d1("d", Schema(baskets.schema()));
  d1.AddRow({Value(100), Value(3)});
  d1.AddRow({Value(101), Value(1)});
  d1.AddRow({Value(101), Value(2)});
  ASSERT_TRUE(StoreTsv(d1, "d1.tsv", &vfs).ok());
}

// Runs the schedule until the first error (the injected crash).
void RunCrashSchedule(Vfs& vfs) {
  Shell shell;
  shell.set_vfs(&vfs);
  for (const std::string& stmt : CrashSchedule()) {
    if (!shell.Execute(stmt).ok()) break;
  }
}

TEST(IncrementalStressTest, CrashSweepRecoveredCatalogServesIncrementally) {
  for (bool power_loss : {false, true}) {
    // Learn the sweep bound from a fault-free run.
    std::uint64_t total_ops = 0;
    {
      MemVfs base;
      SeedCrashTsvs(base);
      FaultVfs vfs(base);
      Shell shell;
      shell.set_vfs(&vfs);
      for (const std::string& stmt : CrashSchedule()) {
        Result<std::string> out = shell.Execute(stmt);
        ASSERT_TRUE(out.ok()) << out.status().ToString() << " for " << stmt;
      }
      total_ops = vfs.op_count();
    }
    ASSERT_GT(total_ops, 0u);

    for (std::uint64_t c = 1; c <= total_ops; ++c) {
      MemVfs base;
      SeedCrashTsvs(base);
      {
        FaultVfs vfs(base);
        FaultPlan plan;
        plan.crash_at_op = c;
        vfs.set_plan(plan);
        RunCrashSchedule(vfs);
      }
      if (power_loss) base.Crash();

      // Recovery: reopen the catalog in a fresh shell. Whatever prefix
      // of the schedule committed, the recovered state must (a) open,
      // (b) serve RUNs whose incremental results are bit-identical to a
      // full recompute over the same recovered data, and (c) accept new
      // commits.
      Shell shell;
      shell.set_vfs(&base);
      Result<std::string> opened = shell.Execute("OPEN cat");
      ASSERT_TRUE(opened.ok())
          << "crash at op " << c << " power_loss " << power_loss << ": "
          << opened.status().ToString();
      if (shell.HasFlock("pairs") && shell.database().Has("baskets")) {
        Result<std::string> on = shell.Execute("SET INCREMENTAL ON");
        ASSERT_TRUE(on.ok()) << on.status().ToString();
        Result<std::string> inc = shell.Execute("RUN pairs LIMIT 100000");
        ASSERT_TRUE(inc.ok())
            << "crash at op " << c << ": " << inc.status().ToString();
        // Delta after recovery: the replayed append chain is gone (fresh
        // session), so this run rebuilds — and a post-recovery append
        // must flow through the delta path again.
        Result<std::string> appended =
            shell.Execute("LOAD baskets APPEND FROM d1.tsv");
        ASSERT_TRUE(appended.ok()) << appended.status().ToString();
        Result<std::string> inc2 = shell.Execute("RUN pairs LIMIT 100000");
        ASSERT_TRUE(inc2.ok()) << inc2.status().ToString();
        Result<std::string> off = shell.Execute("SET INCREMENTAL OFF");
        ASSERT_TRUE(off.ok()) << off.status().ToString();
        Result<std::string> full = shell.Execute("RUN pairs LIMIT 100000");
        ASSERT_TRUE(full.ok()) << full.status().ToString();
        EXPECT_EQ(NormalizeRunOutput(*inc2), NormalizeRunOutput(*full))
            << "crash at op " << c << " power_loss " << power_loss;
      }
      Result<std::string> commit = shell.Execute("THREADS 2");
      EXPECT_TRUE(commit.ok())
          << "crash at op " << c << ": " << commit.status().ToString();
    }
  }
}

// --- server sessions: per-session incremental state over a shared base ---

TEST(IncrementalStressTest, ServerSessionsIncrementalDifferential) {
  Shell seed;
  {
    Result<std::string> out = seed.Execute(
        "GEN BASKETS baskets n_baskets=50 n_items=10 avg_size=5 "
        "theta=0.8 locality=0.5 topics=4 seed=3");
    ASSERT_TRUE(out.ok()) << out.status().ToString();
  }
  MemVfs session_vfs;
  Relation delta("delta", Schema({"BID", "Item"}));
  delta.AddRow({Value(1000), Value(0)});
  delta.AddRow({Value(1000), Value(1)});
  ASSERT_TRUE(StoreTsv(delta, "delta.tsv", &session_vfs).ok());

  ServerOptions options;
  options.port = 0;
  options.base_db = seed.database();
  options.session_vfs = &session_vfs;
  Result<std::unique_ptr<Server>> server = Server::Start(std::move(options));
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  Server& srv = **server;

  auto exec = [](Client& c, const std::string& stmt) {
    Result<std::string> out = c.Execute(stmt);
    EXPECT_TRUE(out.ok()) << out.status().ToString() << " for " << stmt;
    return out.ok() ? *out : std::string();
  };

  const std::string flock_stmt =
      "FLOCK pairs QUERY answer(B) :- baskets(B,$1) AND baskets(B,$2) AND "
      "$1 < $2 FILTER COUNT >= 3";

  // Several sequential sessions, each interleaving incremental runs with
  // appends; every session is differentially checked against its own
  // full recompute, and the shared base must never change.
  for (int round = 0; round < 4; ++round) {
    Result<Client> a = Client::Connect("127.0.0.1", srv.port());
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    Result<Client> b = Client::Connect("127.0.0.1", srv.port());
    ASSERT_TRUE(b.ok()) << b.status().ToString();

    exec(*a, flock_stmt);
    exec(*b, flock_stmt);
    std::string b_before = NormalizeRunOutput(exec(*b, "RUN pairs LIMIT 100000"));

    exec(*a, "SET INCREMENTAL ON");
    std::string inc1 = exec(*a, "RUN pairs LIMIT 100000");
    exec(*a, "LOAD baskets APPEND FROM delta.tsv");
    std::string inc2 = exec(*a, "RUN pairs LIMIT 100000");
    exec(*a, "SET INCREMENTAL OFF");
    std::string full2 = exec(*a, "RUN pairs LIMIT 100000");
    EXPECT_EQ(NormalizeRunOutput(inc2), NormalizeRunOutput(full2))
        << "round " << round;

    // COW isolation: session B (and every later session) still sees the
    // untouched shared base despite A's append.
    std::string b_after = NormalizeRunOutput(exec(*b, "RUN pairs LIMIT 100000"));
    EXPECT_EQ(b_before, b_after) << "round " << round;
  }
}

}  // namespace
}  // namespace qf
