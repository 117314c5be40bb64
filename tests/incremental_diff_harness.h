// Differential delta-replay harness for incremental flock evaluation.
//
// Two shells execute the *same* randomized statement schedule — appends,
// runs, support changes, checkpoints, memory-budget changes — except that
// the subject has SET INCREMENTAL ON and the oracle evaluates every RUN
// from scratch. The incremental contract (DESIGN.md §13) is that served
// results are bit-identical to full recomputation at every step, so the
// harness compares the complete RUN output (assignment count + full
// sorted result preview) after normalizing away timing and the
// INCREMENTAL/PLAN mode tag, plus the relation payloads themselves.
//
// The schedule generator is deliberately adversarial: deltas repeat
// existing rows (empty batches), touch new group keys, interleave with
// threshold tightening *and* loosening (both served from the state),
// and optionally run against a durable catalog so CHECKPOINT and re-OPEN
// (WAL replay of the append records) interact with the cached state.
// Everything is driven through MemVfs, so suites can layer fault
// injection (tests/crash_recovery_harness.h) on top.
#ifndef QF_TESTS_INCREMENTAL_DIFF_HARNESS_H_
#define QF_TESTS_INCREMENTAL_DIFF_HARNESS_H_

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/vfs.h"
#include "relational/relation.h"
#include "relational/tsv.h"
#include "shell/shell.h"

namespace qf {

// Strips per-run noise from a RUN/EXPLAIN ANALYZE first line:
// "pairs: 3 assignments in 0.4 ms (INCREMENTAL:delta(+2 rows))" and
// "pairs: 3 assignments in 1.2 ms (PLAN)" both normalize to
// "pairs: 3 assignments". Later lines (the sorted result preview) are
// kept verbatim — they are deterministic and must match exactly.
inline std::string NormalizeRunOutput(const std::string& out) {
  std::size_t nl = out.find('\n');
  std::string first =
      nl == std::string::npos ? out : out.substr(0, nl);
  std::size_t at = first.find(" in ");
  if (at != std::string::npos) first.resize(at);
  std::string rest =
      nl == std::string::npos ? std::string() : out.substr(nl);
  return first + rest;
}

struct DiffScheduleOptions {
  std::uint64_t seed = 1;
  int steps = 40;
  // THREADS knob for both shells (>= 1; thread-0 / API-level coverage
  // lives in the direct EvaluateFlock comparisons of the test suites).
  unsigned threads = 1;
  // Both shells OPEN a durable catalog (separate directories in the
  // shared MemVfs) so appends/declarations ride the WAL, and CHECKPOINT
  // and re-OPEN steps are generated.
  bool use_catalog = false;
  // SET MEMORY <mb> issued to both shells (0 = unlimited). Small budgets
  // force the subject into evicted(budget) fallbacks — results must not
  // change.
  std::uint64_t memory_mb = 0;
  // Base data shape. Small domains make group collisions (and therefore
  // interesting support counts) likely.
  int n_baskets = 40;
  int n_items = 10;
  int base_rows = 120;
  int max_delta_rows = 8;
};

class DeltaReplayHarness {
 public:
  explicit DeltaReplayHarness(const DiffScheduleOptions& opts)
      : opts_(opts), rng_(opts.seed, 0x9e3779b97f4a7c15ULL) {
    subject_.set_vfs(&vfs_);
    oracle_.set_vfs(&vfs_);
    if (opts_.use_catalog) {
      Must(subject_, "OPEN subj");
      Must(oracle_, "OPEN orac");
    }
    Must(subject_, "SET INCREMENTAL ON");
    if (opts_.threads > 1) {
      Both("THREADS " + std::to_string(opts_.threads));
    }
    if (opts_.memory_mb > 0) {
      Both("SET MEMORY " + std::to_string(opts_.memory_mb));
    }
    LoadBase();
    DeclareThreshold(threshold_);
  }

  Shell& subject() { return subject_; }
  Shell& oracle() { return oracle_; }
  MemVfs& vfs() { return vfs_; }
  int runs_compared() const { return runs_compared_; }

  // Executes `stmt` on both shells, expecting success and identical
  // output (statement outputs other than RUN are deterministic).
  void Both(const std::string& stmt) {
    std::string s = Must(subject_, stmt);
    std::string o = Must(oracle_, stmt);
    EXPECT_EQ(s, o) << "divergent output for: " << stmt;
  }

  // Appends a randomized delta batch (possibly overlapping existing
  // rows) to both shells via LOAD ... APPEND.
  void AppendDelta() {
    int rows = 1 + static_cast<int>(
                       rng_.NextBelow(
                           static_cast<std::uint32_t>(opts_.max_delta_rows)));
    Relation delta("delta", Schema({"BID", "Item"}));
    for (int i = 0; i < rows; ++i) {
      // Mostly existing baskets; occasionally brand-new ones so group
      // keys keep appearing after the initial build.
      int bid = rng_.NextBernoulli(0.8)
                    ? 1 + static_cast<int>(rng_.NextBelow(
                              static_cast<std::uint32_t>(opts_.n_baskets)))
                    : opts_.n_baskets + next_bid_++;
      int item = static_cast<int>(
          rng_.NextBelow(static_cast<std::uint32_t>(opts_.n_items)));
      delta.AddRow({Value(bid), Value(item)});
    }
    std::string path = "delta_" + std::to_string(delta_seq_++) + ".tsv";
    Status stored = StoreTsv(delta, path, &vfs_);
    ASSERT_TRUE(stored.ok()) << stored.ToString();
    Both("LOAD baskets APPEND FROM " + path);
  }

  // Runs the flock on both shells and compares normalized output and
  // the underlying relation payloads.
  void RunFlockAndCompare() {
    std::string stmt = "RUN pairs LIMIT 1000000";
    std::string s = Must(subject_, stmt);
    std::string o = Must(oracle_, stmt);
    EXPECT_EQ(NormalizeRunOutput(s), NormalizeRunOutput(o))
        << "step " << runs_compared_ << " seed " << opts_.seed
        << "\nsubject:\n" << s << "\noracle:\n" << o;
    const Relation& sb = subject_.database().Get("baskets");
    const Relation& ob = oracle_.database().Get("baskets");
    EXPECT_EQ(sb.rows(), ob.rows()) << "base relation diverged";
    ++runs_compared_;
  }

  // Re-declares the flock at threshold `t` on both shells (support
  // change: the subject's state serves either direction).
  void DeclareThreshold(std::int64_t t) {
    threshold_ = t;
    Both(
        "FLOCK pairs QUERY answer(B) :- baskets(B,$1) AND baskets(B,$2) "
        "AND $1 < $2 FILTER COUNT >= " +
        std::to_string(t));
  }

  // One random schedule step. RUN comparisons happen both on their own
  // steps and after every mutation (append/threshold/checkpoint), so
  // every state transition is observed.
  void Step() {
    std::uint32_t roll = rng_.NextBelow(100);
    if (roll < 40) {
      AppendDelta();
      RunFlockAndCompare();
    } else if (roll < 60) {
      RunFlockAndCompare();  // back-to-back runs: cached path
    } else if (roll < 75) {
      // Tighten or loosen around the current threshold, staying >= 2.
      std::int64_t t = 2 + static_cast<std::int64_t>(rng_.NextBelow(5));
      DeclareThreshold(t);
      RunFlockAndCompare();
    } else if (roll < 80 && opts_.use_catalog) {
      // Snapshot byte counts legitimately differ (the subject's catalog
      // also carries the INCREMENTAL knob), so no output comparison.
      Must(subject_, "CHECKPOINT");
      Must(oracle_, "CHECKPOINT");
      RunFlockAndCompare();
    } else if (roll < 85 && opts_.use_catalog) {
      // Both shells recover their catalogs, replaying the append records
      // logged since the last checkpoint; the subject's state rebuilds.
      // OPEN's output names the directory, so it is not compared.
      Must(subject_, "OPEN subj");
      Must(oracle_, "OPEN orac");
      RunFlockAndCompare();
    } else if (roll < 90) {
      // Subject-only introspection must never perturb results.
      Must(subject_, "SHOW FLOCK STATE");
      RunFlockAndCompare();
    } else {
      AppendDelta();
      AppendDelta();  // two batches between runs: multi-epoch chain walk
      RunFlockAndCompare();
    }
  }

  void RunSchedule() {
    for (int i = 0; i < opts_.steps; ++i) {
      Step();
      if (::testing::Test::HasFatalFailure()) return;
    }
    RunFlockAndCompare();
  }

 private:
  std::string Must(Shell& shell, const std::string& stmt) {
    Result<std::string> out = shell.Execute(stmt);
    EXPECT_TRUE(out.ok()) << out.status().ToString() << " for: " << stmt;
    return out.ok() ? *out : std::string();
  }

  void LoadBase() {
    Relation base("baskets", Schema({"BID", "Item"}));
    for (int i = 0; i < opts_.base_rows; ++i) {
      int bid = 1 + static_cast<int>(rng_.NextBelow(
                        static_cast<std::uint32_t>(opts_.n_baskets)));
      int item = static_cast<int>(
          rng_.NextBelow(static_cast<std::uint32_t>(opts_.n_items)));
      base.AddRow({Value(bid), Value(item)});
    }
    base.Dedup();
    Status stored = StoreTsv(base, "base.tsv", &vfs_);
    ASSERT_TRUE(stored.ok()) << stored.ToString();
    Both("LOAD baskets FROM base.tsv");
  }

  DiffScheduleOptions opts_;
  Rng rng_;
  MemVfs vfs_;
  Shell subject_;
  Shell oracle_;
  std::int64_t threshold_ = 2;
  int delta_seq_ = 0;
  int next_bid_ = 1;
  int runs_compared_ = 0;
};

}  // namespace qf

#endif  // QF_TESTS_INCREMENTAL_DIFF_HARNESS_H_
