// Durable catalog: the named relations, intermediate-predicate rules,
// flock definitions, and session knobs of a query-flocks session,
// persisted so that no acknowledged statement is ever silently lost or
// half-applied across a crash (the mining-inside-the-DBMS assumption —
// mined relations and session state survive interactive sessions).
//
// Persistence = checksummed snapshot + write-ahead log, in one directory:
//
//   <dir>/catalog.snap   snapshot: "QFSNAP01" magic, then one checksummed
//                        frame (relational/serialize.h) whose payload is
//                        the u64 last-applied LSN + EncodeCatalogState
//                        bytes. Rotated via catalog.snap.tmp + fsync +
//                        rename + dir fsync.
//   <dir>/catalog.wal    frames (storage/wal.h); each frame payload is
//                        one *commit*: u64 LSN, u32 record count, then
//                        that many length-prefixed records (u8 type +
//                        body each). A multi-record commit shares one
//                        frame and one CRC, so it is all-or-nothing
//                        across a torn write.
//
// Commit protocol: a mutation is encoded, appended to the WAL, fsynced,
// and only then applied in memory and acknowledged. The in-memory apply
// *decodes the very bytes that were logged*, so replay is the same code
// path as the original execution — what the WAL holds is exactly what
// recovery rebuilds.
//
// Recovery (Open): load + verify the snapshot (corrupt snapshot =>
// CORRUPT_WAL error, nothing is guessed), then replay WAL records with
// LSN > snapshot LSN. The first torn or checksum-failing record truncates
// the log (crash artifact — see wal.h); a record that checksums but does
// not decode also truncates, and the file is rewritten to the valid
// prefix so future commits append after good bytes. An append record
// whose base does not match is not a crash artifact: Open fails with
// CORRUPT_WAL naming the relation and LSN and leaves the log untouched.
// LSNs make the snapshot-then-truncate rotation crash-safe at every
// intermediate point: stale records (LSN <= snapshot) replay as no-ops.
//
// Failure containment: after any I/O error on the commit path the
// catalog latches read-only — further mutations return the latched
// IO_ERROR (the WAL tail may be torn; appending after it would orphan
// later commits). Reopening the directory recovers the acknowledged
// prefix. Long replays and snapshot encodes poll the resource governor,
// so recovery of a huge catalog is still interruptible.
#ifndef QF_STORAGE_CATALOG_H_
#define QF_STORAGE_CATALOG_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/resource.h"
#include "common/status.h"
#include "common/vfs.h"
#include "optimizer/history.h"
#include "relational/database.h"
#include "storage/wal.h"

namespace qf {

class BufferPool;

// Everything the catalog makes durable. Plain value type so tests can
// keep in-memory oracles and compare bit-for-bit via EncodeCatalogState.
struct CatalogState {
  Database db;
  // DEFINE sources, in definition order (order matters for validation).
  std::vector<std::string> rules;
  // Flock name -> declaration source ("<name> QUERY ... FILTER ...",
  // minus the name; re-parsed by the shell on adoption).
  std::map<std::string, std::string> flocks;
  // Session knobs by WAL key, as stored integers. The shell's knob table
  // (Shell::kKnobs in shell/shell.cc) names the nine keys, their units and
  // bounds; the catalog logs and replays whatever key it is given.
  std::map<std::string, std::int64_t> knobs;
  // Learned-optimizer outcome history (optimizer/history.h): one
  // kBanditOutcome WAL record per learned RUN, folded into aggregates.
  OutcomeHistory bandit;
};

// Deterministic encoding of `state` (relations in name order, rows in
// stored order). Equal states encode to identical bytes — the oracle
// comparison the crash-recovery tests rely on. Governor-pollable.
Result<std::string> EncodeCatalogState(const CatalogState& state,
                                       QueryContext* ctx = nullptr);
Result<CatalogState> DecodeCatalogState(std::string_view bytes,
                                        QueryContext* ctx = nullptr);

// Out-of-core knobs for a catalog (all defaults preserve the original
// all-inline behavior for existing data sets).
struct CatalogOptions {
  // A relation whose estimated footprint (rows * ApproxTupleBytes) meets
  // this threshold is checkpointed as a paged sidecar file under
  // <dir>/pages/ (storage/page.h) instead of inline snapshot bytes; the
  // snapshot then uses the "QFSNAP02" layout with a per-relation stub.
  // Relations whose names are not clean file names ([A-Za-z0-9_]) stay
  // inline regardless of size.
  std::uint64_t paged_threshold_bytes = 256 * 1024;
  // When set, paged relations are read back through this pool at Open
  // (shared page cache); null reads directly.
  BufferPool* pool = nullptr;
};

class Catalog {
 public:
  struct OpenInfo {
    bool snapshot_loaded = false;
    std::uint64_t snapshot_lsn = 0;
    std::uint64_t replayed_records = 0;  // applied (LSN > snapshot)
    std::uint64_t skipped_records = 0;   // stale (LSN <= snapshot)
    std::uint64_t truncated_bytes = 0;   // torn/corrupt tail dropped
    std::uint64_t paged_relations = 0;   // stubs resolved from page files
    std::uint64_t adopted_relations = 0; // ...of which `previous` held
    std::uint64_t appends_adopted = 0;   // append records not replayed
    std::uint64_t orphans_removed = 0;   // stale page + spill files swept
    double replay_ms = 0.0;
  };

  // Opens (creating if needed) the catalog in `dir`, recovering state
  // from snapshot + WAL. Returns CORRUPT_WAL for an unreadable snapshot
  // or an append record whose base does not match, IO_ERROR for OS
  // failures, and the governor's typed status if `ctx` trips
  // mid-recovery. Unreferenced page files and orphaned spill files
  // under the directory are swept (crash leftovers; best-effort).
  //
  // `previous` (nullable) is the catalog of the same directory and Vfs
  // that this one replaces. Every paged stub's sidecar is opened and its
  // footer, directory, name and row count are checked as always, but its
  // pages are decoded (ReadAll) only when the rows are needed. When
  // `previous` holds a live handle whose version record names the same
  // file and the same append records (LSN and CRC each) that replay meets
  // on top of it, the new state adopts that handle: neither the sidecar
  // nor the appends are decoded onto it. Each such append's base is still
  // checked — the first against the footer and the sidecar's last row
  // (DiskRelation::ReadLastRow), later ones against the held handle,
  // whose leading rows are every earlier version's — so a mismatched base
  // fails with CORRUPT_WAL as in a fresh Open. Any other record on that
  // relation, or a chain that stops short, makes Open start over without
  // `previous`: the path a fresh session takes. Adopted rows allocate
  // nothing, so nothing is charged to `ctx` for them. A catalog of
  // another directory or Vfs is ignored.
  static Result<std::unique_ptr<Catalog>> Open(
      Vfs& vfs, std::string dir, QueryContext* ctx = nullptr,
      CatalogOptions options = {}, const Catalog* previous = nullptr);

  Catalog(const Catalog&) = delete;
  Catalog& operator=(const Catalog&) = delete;

  // --- mutations (logged, fsynced, then applied; see commit protocol) ---

  Status PutRelation(const Relation& rel, QueryContext* ctx = nullptr);
  // One commit (single fsync) covering several relations — all-or-nothing
  // across a crash, for multi-relation statements like GEN MEDICAL.
  Status PutRelations(const std::vector<const Relation*>& rels,
                      QueryContext* ctx = nullptr);
  // Set-semantics append of `delta` to relation `name` (AppendRelation).
  // Logs only the delta, with the base's row count and a check of its last
  // row, so the commit costs O(delta) bytes. The apply — at commit and at
  // replay alike — runs AppendRelation on the base it finds; a replay that
  // finds a different base fails Open with CORRUPT_WAL instead of building
  // rows nobody acknowledged. FAILED_PRECONDITION for a missing relation,
  // AppendRelation's INVALID_ARGUMENT for a schema mismatch (both before
  // anything is logged).
  Status AppendRows(const std::string& name, const Relation& delta,
                    QueryContext* ctx = nullptr);
  Status DefineRule(const std::string& rule_text);
  Status PutFlock(const std::string& name, const std::string& source);
  Status SetKnob(const std::string& key, std::int64_t value);
  // Logs one learned-RUN outcome and folds it into state().bandit. Same
  // durability contract as every mutation: WAL append + fsync before the
  // in-memory apply, so the optimizer's learning replays after a crash.
  Status RecordBanditOutcome(const BanditOutcome& outcome);

  // Writes a fresh snapshot (temp + fsync + rename + dir fsync) and
  // resets the WAL. The snapshot is durable before the log shrinks. A
  // failed snapshot rotation leaves both the old snapshot and the WAL
  // intact, so it returns the error without latching — a transient
  // ENOSPC here is retryable.
  //
  // A page sidecar is write-once and belongs to one relation version: a
  // paged relation whose version record holds no appends and whose handle
  // is unchanged keeps its file — the new snapshot names it again,
  // nothing is written or synced for it, and the sweep spares it. Only
  // changed relations get new sidecars. A kept file is durable and named
  // by both the old and the new snapshot, so no crash point loses it.
  Status Checkpoint(QueryContext* ctx = nullptr);

  // --- inspection ---

  const CatalogState& state() const { return state_; }
  const std::string& dir() const { return dir_; }
  const StorageStats& stats() const { return stats_; }
  const OpenInfo& open_info() const { return open_info_; }
  // OK while the catalog accepts mutations; the latched IO_ERROR after a
  // commit-path failure.
  Status Healthy() const { return latched_; }

  // Directory holding this catalog's paged relation sidecars.
  std::string PagesDir() const { return dir_ + "/pages"; }
  // Directory the shell points spill grants at for this catalog.
  std::string SpillDir() const { return dir_ + "/spill"; }

  // Per relation built from a page sidecar, "this handle is the relation
  // at version V": V is the sidecar `file` under PagesDir() that the
  // current snapshot names, followed by the append records applied on top
  // of it since, each identified by its LSN and the CRC32C of its record
  // body. `rows` is the state_.db handle at that version (a weak_ptr
  // compared by owner, so a reused address never matches). Open records
  // one for every paged stub, a commit's append extends it, a put drops
  // it, and Checkpoint replaces them all with the sidecars its snapshot
  // names. Checkpoint keeps a file, and a later Open adopts a handle, only
  // on this record.
  struct Version {
    std::string file;
    std::vector<std::pair<std::uint64_t, std::uint32_t>> appends;
    std::weak_ptr<const Relation> rows;
  };

 private:
  Catalog(Vfs& vfs, std::string dir, CatalogOptions options);

  // Appends `payloads` as one WAL commit, then applies them in memory.
  Status Commit(const std::vector<std::string>& payloads, QueryContext* ctx);
  Status Latch(Status s);
  // Removes page files under PagesDir() not named in `referenced`, plus
  // (at Open only) orphaned spill files under SpillDir(). Best-effort:
  // I/O errors are swallowed (a failed sweep leaves garbage for the next
  // one, never damage).
  void SweepOrphans(const std::vector<std::string>& referenced,
                    bool sweep_spill);

  Vfs& vfs_;
  std::string dir_;
  CatalogOptions options_;
  CatalogState state_;
  std::map<std::string, Version, std::less<>> versions_;  // by relation
  std::unique_ptr<WalWriter> wal_;
  std::uint64_t next_lsn_ = 1;
  StorageStats stats_;
  OpenInfo open_info_;
  Status latched_;  // OK, or the first commit-path I/O error
};

}  // namespace qf

#endif  // QF_STORAGE_CATALOG_H_
