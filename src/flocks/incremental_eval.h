// Incremental flock evaluation: per-flock cached state and the decision
// layer over it (DESIGN.md §13).
//
// A flock's result depends only on the exact aggregate of each parameter
// assignment's answer set, and under append-only deltas that answer set
// only grows: the new answers are exactly the CQ derivations that use at
// least one delta tuple. IncrementalFlockState caches every answer,
// deduplicated and aggregated per assignment, in one GroupTable
// (relational/ops.h) built as EvaluateFlock builds its own; absorbing
// the new answers updates every aggregate without rescanning history.
//
// The evaluator owns one state per flock name plus the per-relation
// *append chains* the shell records after every successful
// `LOAD ... APPEND` (old handle -> new handle). On RUN it decides:
//
//   cached  — every base relation handle is unchanged (probed first by
//             Database::generation()): serve from the group table.
//   delta   — every changed positive relation is reachable from the
//             cached handle through the append chain: evaluate only the
//             delta bindings (per positive-subgoal occurrence, that
//             occurrence bound to the delta slice, the rest to the full
//             new relations — sound for monotone CQs), absorb, serve.
//   build   — no state (or definition/lineage invalidation): evaluate
//             everything once, materializing the state.
//   (not served) — views, non-monotone filters, non-integral SUMs, or
//             memory-budget pressure: the caller falls back to the
//             ordinary full evaluation, uncached.
//
// Exactness: a served result is bit-identical to the direct evaluator
// over the current database — the differential delta-replay harness
// (tests/incremental_diff_harness.h) pins this across randomized
// append/run/support-change/checkpoint schedules.
#ifndef QF_FLOCKS_INCREMENTAL_EVAL_H_
#define QF_FLOCKS_INCREMENTAL_EVAL_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/exec_env.h"
#include "common/status.h"
#include "flocks/flock.h"
#include "relational/database.h"
#include "relational/ops.h"

namespace qf {

// The cached evaluation state of one flock: its answer rows (parameter
// columns then canonical head columns, the direct evaluator's answer
// schema) in a distinct GroupTable keyed on the parameters. The table
// holds the exact aggregate of *every* group, so the state serves any
// monotone filter over the same query, aggregate and aggregated column.
// SUM weights pass CheckSumWeight as they are absorbed; the evaluator
// caches SUM states only while every weight is integral, so the sums
// are exact in any absorb order.
class IncrementalFlockState {
 public:
  IncrementalFlockState(std::string flock_name, const QueryFlock& flock);

  const std::string& flock_name() const { return flock_name_; }

  // True when `flock`'s filter is monotone and reads the aggregate this
  // state computes: the same query, aggregate and aggregated column.
  // The comparison and threshold may differ from the built ones.
  bool Serves(const QueryFlock& flock) const;

  // Adds one answer row; copies of a row count once. False once a SUM
  // weight failed its check; Flush() then returns that error.
  bool Absorb(const Tuple& row) { return table_.Push(row); }
  // Ends a run of Absorb calls: refreshes answer_rows(), group_count()
  // and ApproxBytes(), and returns the first weight error.
  Status Flush() { return table_.Flush(); }

  // The flock result under `filter`: parameters of passing groups,
  // canonically sorted, named "flock_result" — bit-identical to the
  // direct evaluator over the same answers.
  Relation Serve(const FilterCondition& filter) const;

  // Lineage marks: the relation handles (and row counts) this state's
  // answers were computed from, recorded by the evaluator after every
  // build/update. `negated` marks predicates under NOT — any change to
  // those is non-monotone and forces a rebuild.
  struct RelationMark {
    std::string name;
    std::shared_ptr<const Relation> handle;
    std::size_t rows = 0;
    bool negated = false;
  };
  std::vector<RelationMark>& marks() { return marks_; }
  const std::vector<RelationMark>& marks() const { return marks_; }

  // Database::generation() observed at the last build/update — the cheap
  // all-pointers-unchanged probe.
  std::uint64_t last_generation() const { return last_generation_; }
  void set_last_generation(std::uint64_t g) { last_generation_ = g; }

  std::size_t answer_rows() const { return table_.rows(); }
  std::size_t group_count() const { return table_.groups(); }

  // Cumulative decision counters (SHOW FLOCK STATE).
  std::uint64_t full_builds = 0;
  std::uint64_t delta_batches = 0;
  std::uint64_t served_cached = 0;

  // Bytes the group table holds for its answers and groups — what the
  // evaluator holds against the session memory budget.
  std::uint64_t ApproxBytes() const { return table_.charged(); }

  // Multi-line description for SHOW FLOCK STATE.
  std::string Describe() const;

 private:
  std::string flock_name_;
  UnionQuery query_;
  FilterCondition built_filter_;
  std::vector<std::string> param_columns_;  // "$"-tagged, sorted
  GroupTable table_;
  std::vector<RelationMark> marks_;
  std::uint64_t last_generation_ = 0;
};

struct IncrementalRunInfo {
  // False: the statement was not served; run the full evaluator
  // (decision says why — "unsupported(...)" / "evicted(budget)").
  bool served = false;
  std::string decision;
  // Changed relations and their delta row counts (delta decisions).
  std::vector<std::pair<std::string, std::size_t>> delta_rows;
  std::uint64_t state_bytes = 0;
};

class IncrementalEvaluator {
 public:
  IncrementalEvaluator() = default;

  // Lineage bookkeeping. RecordAppend links `from` -> `to` for `name`
  // (call after a successful LOAD ... APPEND persist, with the handle
  // the database now serves); RecordReplace severs the chain (LOAD /
  // GEN / LOADDB overwrite); Reset drops every state and chain (OPEN /
  // SeedDatabase swap the whole database).
  void RecordAppend(const std::string& name,
                    std::shared_ptr<const Relation> from,
                    std::shared_ptr<const Relation> to);
  void RecordReplace(const std::string& name);
  void Reset();

  // Serves `flock` from cached state when possible (see the file
  // comment). On a served run fills *result and sets info->served; on a
  // fallback returns OK with info->served == false and the caller runs
  // the ordinary evaluation. Errors (typed governor aborts, SUM
  // violations) surface as non-OK statuses exactly as the full
  // evaluator's would.
  //
  // `state_budget` is the session memory budget ALL cached states are
  // held against, pooled (the shell passes SET MEMORY's bytes; 0 =
  // unlimited). When a state's projected footprint would overflow the
  // pool, *other* states are evicted first — least-recently-served
  // first, smaller (cheaper-to-rebuild) first on ties — so a hot flock
  // survives pressure from cold ones. Only a state that exceeds the
  // whole budget by itself is dropped ("evicted(budget)"), falling back
  // to the ordinary uncached evaluation.
  //
  // `env` runs the build/delta binding evaluations (served results are
  // identical for every thread count; env.ctx takes their transient
  // charges). env.metrics receives an "incremental" node (decision +
  // state size; one "delta" child per changed relation with its delta
  // row count) plus the usual disjunct subtrees for build/delta work.
  Status Run(const std::string& name, const QueryFlock& flock,
             const Database& db, const std::map<std::string, Relation>& views,
             std::uint64_t state_budget, const ExecEnv& env,
             Relation* result, IncrementalRunInfo* info);

  const IncrementalFlockState* state(const std::string& name) const;
  std::size_t state_count() const { return states_.size(); }
  // Cold states evicted to make room for other flocks under the pooled
  // state budget (tests assert retention priority through this).
  std::uint64_t budget_evictions() const { return budget_evictions_; }

  // SHOW FLOCK STATE [<name>] bodies.
  std::string Describe(const std::string& name) const;
  std::string DescribeAll() const;

 private:
  struct Chain {
    // from -> to handle links in append order; bounded (oldest dropped),
    // so very stale states rebuild instead of walking forever.
    std::vector<std::pair<std::shared_ptr<const Relation>,
                          std::shared_ptr<const Relation>>> links;
  };

  // Drops the links no state can walk any more: in each chain, those
  // before the first link that starts at some state's mark — all of them
  // when none does. A link pins its `from` version, so without this a
  // chain would keep up to kMaxChainLinks dead relation versions alive.
  void PruneChains();

  // Delta slice rows [mark.rows, cur->size()) when `cur` is reachable
  // from the mark's handle through the chain; false otherwise.
  bool DeltaSlice(const IncrementalFlockState::RelationMark& mark,
                  const std::shared_ptr<const Relation>& cur,
                  Relation* slice) const;

  // Absorbs every answer of `flock` over `db` into `st` and marks its
  // lineage. Clears *exact when a SUM weight is non-integral.
  Status BuildState(const QueryFlock& flock, const Database& db,
                    const ExecEnv& env, IncrementalFlockState* st,
                    bool* exact);

  // Makes `projected` bytes for `subject` fit within the pooled `budget`
  // by evicting other states (LRU order, smaller state first on ties).
  // Returns false only when `projected` alone exceeds `budget` — the one
  // case the subject itself must go. Never erases `subject`.
  bool MakeRoom(const std::string& subject, std::uint64_t projected,
                std::uint64_t budget);
  // Marks `name` as just served (retention priority for MakeRoom).
  void TouchState(const std::string& name) { last_use_[name] = ++use_tick_; }

  std::map<std::string, std::unique_ptr<IncrementalFlockState>> states_;
  std::map<std::string, Chain> chains_;
  // Retention bookkeeping: logical serve clock per state (not wall time,
  // so replays are deterministic) and the pooled-budget eviction count.
  std::map<std::string, std::uint64_t> last_use_;
  std::uint64_t use_tick_ = 0;
  std::uint64_t budget_evictions_ = 0;
};

}  // namespace qf

#endif  // QF_FLOCKS_INCREMENTAL_EVAL_H_
