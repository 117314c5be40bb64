// Write-ahead log: the durability primitive of the catalog (catalog.h).
//
// On-disk format: a sequence of checksummed frames (AppendFrame,
// relational/serialize.h), nothing else. The writer appends frames and
// fsyncs once per commit batch, so a statement is acknowledged only
// after its records are on stable storage.
//
// The reader applies the torn-write truncation rule: scanning from the
// start, the first frame whose header is short, whose payload extends
// past end-of-file, or whose checksum mismatches ends the log — it and
// everything after it are crash artifacts (a record that never finished
// committing) and are dropped. A well-formed prefix is always recovered
// in full. Callers that find a dropped tail rewrite the file to the
// valid prefix before appending again, so new commits never land beyond
// garbage.
#ifndef QF_STORAGE_WAL_H_
#define QF_STORAGE_WAL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "common/vfs.h"

namespace qf {

// Storage-layer counters, rendered by the shell into the EXPLAIN ANALYZE
// metrics tree ("storage" subtree) and OPEN/CHECKPOINT output.
struct StorageStats {
  std::uint64_t wal_records = 0;   // records appended this session
  std::uint64_t wal_bytes = 0;     // frame bytes appended (headers incl.)
  std::uint64_t fsyncs = 0;        // file + directory syncs issued
  std::uint64_t wal_sync_ns = 0;   // wall time inside commit fsyncs
  std::uint64_t snapshots = 0;     // checkpoints completed
  std::uint64_t snapshot_bytes = 0;
  std::uint64_t snapshot_ns = 0;
  std::uint64_t sidecars_written = 0;  // page files checkpoints wrote
  std::uint64_t sidecars_kept = 0;     // ...and named again unchanged
  std::uint64_t replayed_records = 0;  // WAL records applied at Open
  std::uint64_t truncated_bytes = 0;   // torn/corrupt tail dropped at Open
  std::uint64_t replay_ns = 0;         // snapshot load + WAL replay time
};

struct WalReadResult {
  std::vector<std::string> payloads;
  // Bytes of the well-formed prefix (survives) and of the dropped tail.
  std::uint64_t valid_bytes = 0;
  std::uint64_t dropped_bytes = 0;
};

// Parses `data` per the truncation rule above. Never fails: a fully
// garbage log is simply zero records with everything dropped.
WalReadResult ParseWal(std::string_view data);

// Reads and parses `path`; a missing file is an empty log.
Result<WalReadResult> ReadWal(Vfs& vfs, const std::string& path);

// Append-side handle. Not thread-safe; the catalog serializes commits.
class WalWriter {
 public:
  // `stats` may be null. Call Open() (or Reset()) before Append().
  WalWriter(Vfs& vfs, std::string path, StorageStats* stats);

  // Opens in append mode (creating the file if absent).
  Status Open();

  // Truncates the log to empty, durably, and leaves the handle ready to
  // append — the post-checkpoint reset.
  Status Reset();

  // Rewrites the log to exactly `payloads` (the recovery path after a
  // torn tail), durably, leaving the handle ready to append.
  //
  // Both go through an atomic temp + fsync + rename + dir-fsync rewrite
  // (never an in-place truncation): at every crash point the on-disk log
  // is either the complete old content or the complete new content, so
  // the valid prefix — acknowledged commits — can never be lost.
  Status Rewrite(const std::vector<std::string>& payloads);

  // Commits a batch: frames every payload, appends them with one write,
  // and fsyncs once. On return OK the batch is on stable storage.
  Status Append(const std::vector<std::string>& payloads);

 private:
  Status ReplaceWith(const std::string& content);

  Vfs& vfs_;
  std::string path_;
  StorageStats* stats_;
  std::unique_ptr<WritableFile> file_;
};

}  // namespace qf

#endif  // QF_STORAGE_WAL_H_
