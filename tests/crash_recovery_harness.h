// Shared harness for the crash-recovery torture tests: a deterministic
// catalog workload whose relations come from real flock evaluations (so
// thread-count bit-identity carries over to durability), an in-memory
// oracle of every acknowledged state, and the crash-point sweep that
// kills the "process" at each I/O operation and checks recovery.
//
// Used by crash_recovery_test.cc (quick sweeps, default matrix) and
// crash_recovery_stress_test.cc (full grid, `slow` label).
#ifndef QF_TESTS_CRASH_RECOVERY_HARNESS_H_
#define QF_TESTS_CRASH_RECOVERY_HARNESS_H_

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/vfs.h"
#include "flocks/eval.h"
#include "flocks/filter.h"
#include "flocks/flock.h"
#include "optimizer/history.h"
#include "storage/catalog.h"
#include "workload/basket_gen.h"

namespace qf {

inline std::string StateBytes(const Catalog& catalog) {
  Result<std::string> bytes = EncodeCatalogState(catalog.state());
  EXPECT_TRUE(bytes.ok()) << bytes.status().ToString();
  return bytes.ok() ? *bytes : std::string();
}

struct WorkloadStep {
  const char* what;
  std::function<Status(Catalog&)> run;
};

inline Relation CrashTestBaskets() {
  BasketConfig config;
  config.n_baskets = 30;
  config.n_items = 10;
  config.avg_basket_size = 4;
  config.seed = 7;
  Relation rel = GenerateBaskets(config);
  rel.set_name("baskets");
  return rel;
}

// Frequent item pairs mined from the baskets by a real flock evaluation
// at `threads` workers. The engine guarantees the result is bit-identical
// for every thread count; the torture tests lean on that to demand
// bit-identical recovered catalogs across {0, 1, 4}.
inline Relation MinedPairs(const Relation& baskets, unsigned threads) {
  Database db;
  db.PutRelation(baskets);
  Result<QueryFlock> flock = MakeFlock(
      "answer(B) :- baskets(B,$1) AND baskets(B,$2) AND $1 < $2",
      FilterCondition::MinSupport(2));
  EXPECT_TRUE(flock.ok()) << flock.status().ToString();
  Result<Relation> result =
      EvaluateFlock(*flock, db, {}, {.threads = threads});
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  Relation rel = result.ok() ? std::move(*result) : Relation();
  rel.set_name("pairs");
  return rel;
}

// A LOAD ... APPEND batch for the baskets: a new basket `bid` holding the
// items of the first `fresh` rows, plus one row the baskets already hold
// (deduped away on apply).
inline Relation BasketsDelta(const Relation& baskets, int bid, int fresh) {
  Relation delta("baskets", baskets.schema());
  for (int i = 0; i < fresh; ++i) {
    delta.AddRow({Value(bid), baskets.rows()[i][1]});
  }
  delta.Add(baskets.rows().front());
  return delta;
}

// The scripted workload: every catalog mutation type, two checkpoints at
// asymmetric positions, one multi-relation batch commit, and a baskets
// append on each side of the first checkpoint. Knob values are fixed
// (never `threads`) so the oracle bytes are thread-invariant.
inline std::vector<WorkloadStep> BuildWorkload(unsigned threads) {
  auto baskets = std::make_shared<Relation>(CrashTestBaskets());
  auto pairs = std::make_shared<Relation>(MinedPairs(*baskets, threads));
  auto delta1 = std::make_shared<Relation>(BasketsDelta(*baskets, 1000, 3));
  auto delta2 = std::make_shared<Relation>(BasketsDelta(*baskets, 1001, 2));
  auto r1 = std::make_shared<Relation>("batch_a", Schema({"A"}));
  r1->AddRow({Value(1)});
  r1->AddRow({Value(2)});
  auto r2 = std::make_shared<Relation>("batch_b", Schema({"B", "C"}));
  r2->AddRow({Value("x"), Value(0.5)});
  return {
      {"put baskets",
       [baskets](Catalog& c) { return c.PutRelation(*baskets); }},
      {"set threads knob",
       [](Catalog& c) { return c.SetKnob("THREADS", 2); }},
      {"define rule",
       [](Catalog& c) { return c.DefineRule("big(B) :- baskets(B, I)"); }},
      {"put mined pairs",
       [pairs](Catalog& c) { return c.PutRelation(*pairs); }},
      // Appends log only their delta: replay must rebuild the merged
      // relation from the snapshot or the WAL record it lands on.
      {"append baskets",
       [delta1](Catalog& c) { return c.AppendRows("baskets", *delta1); }},
      {"checkpoint",
       [](Catalog& c) { return c.Checkpoint(); }},
      {"append baskets again",
       [delta2](Catalog& c) { return c.AppendRows("baskets", *delta2); }},
      {"declare flock",
       [](Catalog& c) {
         return c.PutFlock("pairs_flock",
                           "QUERY answer(B) :- baskets(B,$1) "
                           "FILTER COUNT >= 2");
       }},
      // A learned-optimizer outcome before the next checkpoint: the
      // kBanditOutcome record must survive both snapshot encoding and
      // WAL replay. Fixed values so the oracle stays thread-invariant.
      {"record bandit outcome",
       [](Catalog& c) {
         BanditOutcome o;
         o.context = 0x123456789abcdef0ull;
         o.arm = "direct:cost";
         o.wall_ms = 1.5;
         o.rows = 9;
         o.skew = 2.0;
         return c.RecordBanditOutcome(o);
       }},
      {"batch relations",
       [r1, r2](Catalog& c) { return c.PutRelations({r1.get(), r2.get()}); }},
      {"set timeout knob",
       [](Catalog& c) { return c.SetKnob("TIMEOUT_MS", 0); }},
      {"checkpoint again",
       [](Catalog& c) { return c.Checkpoint(); }},
      {"final knob",
       [](Catalog& c) { return c.SetKnob("MEMORY_MB", 64); }},
      // A second outcome in the same cell after the last checkpoint, so
      // replay must fold it into aggregates the snapshot already holds.
      {"record bandit outcome again",
       [](Catalog& c) {
         BanditOutcome o;
         o.context = 0x123456789abcdef0ull;
         o.arm = "direct:cost";
         o.wall_ms = 0.5;
         o.rows = 9;
         o.skew = 1.0;
         return c.RecordBanditOutcome(o);
       }},
  };
}

// Runs the workload against `vfs` (catalog dir "cat") until a step fails;
// returns the number of acknowledged (successful) steps.
inline std::size_t RunWorkload(Vfs& vfs, unsigned threads) {
  std::vector<WorkloadStep> steps = BuildWorkload(threads);
  Result<std::unique_ptr<Catalog>> cat = Catalog::Open(vfs, "cat");
  if (!cat.ok()) return 0;
  std::size_t acked = 0;
  for (const WorkloadStep& step : steps) {
    if (!step.run(**cat).ok()) break;
    ++acked;
  }
  return acked;
}

// oracle[k] = the encoded catalog state after k acknowledged steps.
inline std::vector<std::string> WorkloadOracle(unsigned threads) {
  std::vector<WorkloadStep> steps = BuildWorkload(threads);
  std::vector<std::string> oracle;
  MemVfs vfs;
  Result<std::unique_ptr<Catalog>> cat = Catalog::Open(vfs, "cat");
  EXPECT_TRUE(cat.ok()) << cat.status().ToString();
  if (!cat.ok()) return oracle;
  oracle.push_back(StateBytes(**cat));
  for (const WorkloadStep& step : steps) {
    Status s = step.run(**cat);
    EXPECT_TRUE(s.ok()) << step.what << ": " << s.ToString();
    oracle.push_back(StateBytes(**cat));
  }
  return oracle;
}

inline bool IsOracleState(const std::vector<std::string>& oracle,
                          const std::string& bytes) {
  for (const std::string& state : oracle) {
    if (state == bytes) return true;
  }
  return false;
}

// The tentpole property: crash the workload at I/O operation `c` for
// every c, reopen, and require a catalog bit-identical to the state after
// `acked` steps — or `acked + 1`, for a crash in the window where a
// commit is durable but not yet acknowledged. Both crash outcomes are
// exercised per `power_loss`: true discards every unsynced write
// (MemVfs::Crash); false keeps everything that reached the base vfs,
// including the torn tail of the dying Append.
inline void RunCrashSweep(unsigned threads, std::uint32_t torn_write_bytes,
                          bool power_loss) {
  std::vector<WorkloadStep> steps = BuildWorkload(threads);
  std::vector<std::string> oracle = WorkloadOracle(threads);
  ASSERT_EQ(oracle.size(), steps.size() + 1);

  // Learn the sweep's upper bound from a fault-free run.
  std::uint64_t total_ops = 0;
  {
    MemVfs base;
    FaultVfs vfs(base);
    Result<std::unique_ptr<Catalog>> cat = Catalog::Open(vfs, "cat");
    ASSERT_TRUE(cat.ok()) << cat.status().ToString();
    for (const WorkloadStep& step : steps) {
      ASSERT_TRUE(step.run(**cat).ok()) << step.what;
    }
    total_ops = vfs.op_count();
  }
  ASSERT_GT(total_ops, 0u);

  for (std::uint64_t c = 1; c <= total_ops; ++c) {
    MemVfs base;
    std::size_t acked = 0;
    {
      FaultVfs vfs(base);
      FaultPlan plan;
      plan.crash_at_op = c;
      plan.torn_write_bytes = torn_write_bytes;
      vfs.set_plan(plan);
      Result<std::unique_ptr<Catalog>> cat = Catalog::Open(vfs, "cat");
      if (cat.ok()) {
        for (const WorkloadStep& step : steps) {
          if (!step.run(**cat).ok()) break;
          ++acked;
        }
      }
      EXPECT_TRUE(vfs.crashed()) << "crash point " << c << " never fired";
    }
    if (power_loss) base.Crash();

    Result<std::unique_ptr<Catalog>> reopened = Catalog::Open(base, "cat");
    ASSERT_TRUE(reopened.ok())
        << "crash at op " << c << ": " << reopened.status().ToString();
    std::string recovered = StateBytes(**reopened);
    bool prefix_consistent =
        recovered == oracle[acked] ||
        (acked + 1 < oracle.size() && recovered == oracle[acked + 1]);
    EXPECT_TRUE(prefix_consistent)
        << "crash at op " << c << " (acked " << acked << ", threads "
        << threads << ", torn " << torn_write_bytes << ", power_loss "
        << power_loss << "): recovered state matches no acknowledged state";
    // The recovered catalog must accept new commits (a torn tail was
    // physically truncated, so appends land after valid bytes).
    EXPECT_TRUE(
        (*reopened)->SetKnob("POST_CRASH", static_cast<std::int64_t>(c)).ok())
        << "crash at op " << c;
  }
}

}  // namespace qf

#endif  // QF_TESTS_CRASH_RECOVERY_HARNESS_H_
