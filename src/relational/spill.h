// Out-of-core execution: checksummed spill files and the grace-hash
// group-by sink the flock evaluator fuses into its final join. The CQ
// evaluator streams its final join into that sink (flocks/cq_eval.h);
// every other operator runs the in-memory kernels of relational/ops.h.
//
// The problem (ROADMAP item 3): every relation lives wholly in RAM, so
// the PR 4 governor's only answer to a large intermediate is a hard
// RESOURCE_EXHAUSTED. Grace hashing turns that cliff into graceful
// degradation: when the accountant nears budget, the final join streams
// its answer rows into checksummed temp files partitioned by group-key
// hash, and the group-by processes one partition at a time — recursing
// with a level-salted hash when a partition is itself too big.
//
// Determinism contract (DESIGN.md §14): spilling never changes results.
//   * Rows with equal keys always land in the same partition, and records
//     are written (and read back) in input order, so per-partition row
//     order is the global order restricted to the partition.
//   * SpillGroupSink keeps each group whole inside one partition, so
//     per-group accumulation order equals the serial GroupAggregate's,
//     bit for bit (including float SUM association).
//   * Activation (SpillWanted) depends only on accounted bytes at an
//     operator boundary, which the determinism contract already makes
//     thread-invariant — so the decision itself is thread-invariant.
//
// Fault model: spill files are transient (never fsynced; a crash simply
// loses them). Every block is CRC32C-framed, so torn or bit-flipped spill
// data yields a typed IO_ERROR, never silently wrong results. Writers
// remove their files in their destructors — statement abort unwinds the
// stack and cleans up — and RemoveSpillFiles sweeps orphans left by a
// killed process (the shell runs it on OPEN).
//
// Layering: this file lives in relational/ and does raw sequential Vfs
// I/O. It does NOT use the buffer pool (src/storage depends on
// relational, not vice versa); the pool serves paged catalog relations.
#ifndef QF_RELATIONAL_SPILL_H_
#define QF_RELATIONAL_SPILL_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/metrics.h"
#include "common/resource.h"
#include "common/status.h"
#include "common/vfs.h"
#include "relational/ops.h"
#include "relational/relation.h"

namespace qf {

// Temp spill files are named "<dir>/qfspill-<seq>"; the prefix is what
// the orphan sweep matches on.
inline constexpr char kSpillFilePrefix[] = "qfspill-";

// Cumulative counters for one spill environment (one shell session /
// server). Atomic: parallel statements may share an env.
struct SpillStats {
  std::atomic<std::uint64_t> activations{0};   // operators that spilled
  std::atomic<std::uint64_t> partitions{0};    // partition files written
  std::atomic<std::uint64_t> spilled_rows{0};  // records written
  std::atomic<std::uint64_t> bytes_written{0};
  std::atomic<std::uint64_t> bytes_read{0};
  std::atomic<std::uint64_t> recursions{0};    // oversized partitions re-split
};

// Where and how a governed statement may spill. Hung off QueryContext as
// an opaque pointer (common/resource.h forward-declares this); nullptr
// means "no spill grant" and operators keep the PR 4 hard-abort behavior.
struct SpillEnv {
  Vfs* vfs = nullptr;
  std::string dir;  // spill files live directly inside; created on demand
  // Partitions per split. 32 divides a just-over-budget input into
  // comfortably sub-budget pieces; deeper skew recurses.
  std::size_t fanout = 32;
  // Recursion cutoff: at this depth a partition is processed in memory
  // even if oversized (a pathological all-equal-keys input then gets the
  // honest RESOURCE_EXHAUSTED instead of infinite splitting).
  std::size_t max_depth = 6;
  // Engage spilling when used + projected bytes exceed this fraction of
  // the budget — headroom for the working partition and the output.
  double activation = 0.8;
  // Target size of one checksummed file block (the I/O and CRC unit).
  std::size_t block_bytes = 256 * 1024;
  std::atomic<std::uint64_t> seq{0};  // spill-file name allocator
  SpillStats stats;
};

// The single spill-activation rule: true when the statement is governed,
// holds a spill grant and a hard budget, and `projected_bytes` more would
// push accounted bytes past activation * budget. Call sites evaluate this
// at operator boundaries, where accounted bytes are thread-invariant.
bool SpillWanted(const QueryContext* ctx, std::uint64_t projected_bytes);

// Fresh unique spill-file path under env.dir.
std::string NewSpillPath(SpillEnv& env);

// Removes every kSpillFilePrefix file directly inside `dir` (orphans from
// a killed process). Returns the number removed; a missing directory
// counts as zero. Stops at the first I/O error.
Result<std::size_t> RemoveSpillFiles(Vfs& vfs, const std::string& dir);

// ---------------------------------------------------------------------
// Checksummed spill file I/O.
//
// File layout: a sequence of blocks, each one checksummed frame
// (AppendFrame, relational/serialize.h) whose payload is a sequence of
// records, each [u32 len][bytes].
// Records never span blocks. No fsync anywhere: the files are transient.

// Sequential writer. The file is created lazily on the first Add and
// REMOVED by the destructor — keep the writer alive while a SpillReader
// consumes the file, and let stack unwinding clean up on abort.
class SpillWriter {
 public:
  explicit SpillWriter(SpillEnv& env);
  ~SpillWriter();

  SpillWriter(const SpillWriter&) = delete;
  SpillWriter& operator=(const SpillWriter&) = delete;

  // Appends one record. Errors (ENOSPC, EIO, injected faults) latch: all
  // later calls return the same status.
  Status Add(std::string_view record);
  // Flushes the trailing partial block and closes the file (which still
  // exists until the destructor runs).
  Status Finish();

  const std::string& path() const { return path_; }
  std::uint64_t records() const { return records_; }
  std::uint64_t bytes() const { return bytes_; }

 private:
  Status FlushBlock();

  SpillEnv& env_;
  std::string path_;
  std::unique_ptr<WritableFile> file_;
  std::string block_;
  Status status_;
  bool created_ = false;
  std::uint64_t records_ = 0;
  std::uint64_t bytes_ = 0;
};

// Streaming reader: holds one decoded block at a time (memory O(block)),
// verifying each block's CRC as it loads. Returned views point into the
// current block and are invalidated by the next Next() that crosses a
// block boundary.
class SpillReader {
 public:
  SpillReader(Vfs& vfs, std::string path, SpillEnv* env = nullptr);

  // False at end of file or on error — check status() to distinguish.
  bool Next(std::string_view* record);
  const Status& status() const { return status_; }

 private:
  Status LoadBlock();

  Vfs& vfs_;
  std::string path_;
  SpillEnv* env_;
  std::optional<std::uint64_t> file_size_;  // read at the first block
  std::uint64_t offset_ = 0;  // next unread file offset
  std::string block_;         // current verified frame, header included
  std::size_t pos_ = 0;       // cursor within block_
  bool eof_ = false;
  Status status_;
};

// ---------------------------------------------------------------------
// Streaming sink: the fused final-join path.

// Grace-hash GROUP BY sink for flock evaluation: rows pushed are answer
// rows (group key in the leading `key_columns` columns, possibly with
// duplicates); Finish() partitions having already spilled every row,
// dedups full rows per partition (set semantics), applies an optional
// per-distinct-row check (the SUM nonnegativity guard), aggregates each
// partition in a serial GroupTable, and returns the concatenated, sorted
// grouped relation — bit-identical to
// GroupAggregate(Distinct(pushed rows), ...).
class SpillGroupSink {
 public:
  // `schema`: schema of the pushed rows; the leading `key_columns`
  // columns form the group key. `row_check` (nullable) runs once per
  // distinct row, before aggregation; its error aborts Finish.
  SpillGroupSink(Schema schema, std::size_t key_columns, AggKind kind,
                 const std::string& agg_column, std::string output_column,
                 std::function<Status(const Tuple&)> row_check,
                 SpillEnv& env, QueryContext* ctx, OpMetrics* metrics);
  ~SpillGroupSink();

  Status Push(const Tuple& row);
  // Set by the producer once it streams into this sink (the spill
  // activation rule fired), so the caller knows Finish() holds the result.
  bool engaged = false;

  // Drains the partitions and returns the grouped relation (key columns +
  // output column, sorted). Call at most once.
  Result<Relation> Finish();

  // Re-points the metrics node Finish() fills — the caller only creates
  // the node once it knows the sink actually engaged.
  void set_metrics(OpMetrics* metrics) { metrics_ = metrics; }

  // Distinct answer rows seen across all partitions (valid after Finish);
  // feeds FlockEvalInfo::answer_rows.
  std::uint64_t answer_rows() const { return answer_rows_; }

 private:
  Status ProcessPartition(const std::string& path, std::uint64_t records,
                          std::size_t level, Relation& out);

  Schema schema_;
  std::vector<std::string> key_names_;
  AggKind kind_;
  std::string agg_column_;
  std::string output_column_;
  std::function<Status(const Tuple&)> row_check_;
  SpillEnv& env_;
  QueryContext* ctx_;
  OpMetrics* metrics_;
  std::vector<std::unique_ptr<SpillWriter>> writers_;
  std::string scratch_;
  std::uint64_t pushed_rows_ = 0;
  std::uint64_t answer_rows_ = 0;
  std::uint64_t probes_ = 0;  // group-table upserts across partitions
  Status status_;
};

}  // namespace qf

#endif  // QF_RELATIONAL_SPILL_H_
