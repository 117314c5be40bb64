#include "storage/catalog.h"

#include <algorithm>
#include <set>
#include <utility>

#include "common/crc32c.h"
#include "common/metrics.h"
#include "relational/serialize.h"
#include "relational/spill.h"
#include "storage/buffer_pool.h"
#include "storage/page.h"

namespace qf {
namespace {

constexpr std::string_view kSnapshotMagic = "QFSNAP01";
// Same layout as QFSNAP01 except each relation is preceded by a marker
// byte: 0 = inline EncodeRelation bytes, 1 = a stub {name, page-file
// name, row count} whose rows live in a paged sidecar (storage/page.h)
// under <dir>/pages/. Snapshots with no paged relation keep the QFSNAP01
// magic, byte-identical to previous releases.
constexpr std::string_view kSnapshotMagic2 = "QFSNAP02";
constexpr std::string_view kSnapshotFile = "catalog.snap";
constexpr std::string_view kWalFile = "catalog.wal";
constexpr std::string_view kPageFileSuffix = ".qfp";

enum : unsigned char { kRelInline = 0, kRelPaged = 1 };

// Paged sidecars are named after the relation, so only clean identifiers
// qualify (anything else stays inline — correct, just not out-of-core).
bool SafeFileName(const std::string& name) {
  if (name.empty()) return false;
  for (char c : name) {
    if (!(c == '_' || (c >= '0' && c <= '9') || (c >= 'A' && c <= 'Z') ||
          (c >= 'a' && c <= 'z'))) {
      return false;
    }
  }
  return true;
}

std::uint64_t EstimatedRelationBytes(const Relation& rel) {
  return static_cast<std::uint64_t>(rel.size()) *
         ApproxTupleBytes(rel.arity());
}

// WAL record types (the u8 after the LSN in every payload).
enum class WalRecordType : unsigned char {
  kPutRelation = 1,
  kDefineRule = 2,
  kPutFlock = 3,
  kSetKnob = 4,
  kBanditOutcome = 5,
  // {relation name, u64 base row count, u32 RowCheck, delta relation}:
  // LOAD ... APPEND logs its delta, not the merged relation.
  kAppendRows = 6,
};

// What an append record pins its base by, in O(arity): CRC32C of the
// encoded row rows[n - 1] (0 for an empty base of n = 0 rows). Together
// with the row count n it tells the base the record was logged against
// from any other base replay could meet.
std::uint32_t RowCheck(const std::vector<Tuple>& rows, std::size_t n) {
  if (n == 0) return 0;
  std::string row;
  for (const Value& v : rows[n - 1]) PutValue(row, v);
  return Crc32c(row);
}

bool IsGovernorAbort(const Status& s) {
  return s.code() == StatusCode::kCancelled ||
         s.code() == StatusCode::kDeadlineExceeded ||
         s.code() == StatusCode::kResourceExhausted;
}

using AppendId = std::pair<std::uint64_t, std::uint32_t>;  // LSN, body CRC

// A paged stub whose pages Open has not decoded: the replaced catalog
// holds a live handle recorded at a version of this sidecar. Replay
// checks the append records of that version's chain instead of applying
// them.
struct LazyStub {
  std::unique_ptr<DiskRelation> disk;
  std::shared_ptr<const Relation> held;
  const Catalog::Version* prev = nullptr;
};

// Applies logged commits to `state` and keeps `versions` in step: an
// append extends the version record of the relation it lands on, a put
// drops it. `fatal` marks a failure that is no crash artifact of the log
// (an append whose base does not match, an unreadable sidecar): Open
// fails on it instead of truncating the log there. `diverged` marks a
// record on a lazy stub that its held handle was not built from: Open
// then starts over without adopting, the path a fresh session takes.
struct Replay {
  CatalogState& state;
  std::map<std::string, Catalog::Version, std::less<>>& versions;
  QueryContext* ctx;
  std::map<std::string, LazyStub, std::less<>> lazy;  // Open only
  bool fatal = false;
  bool diverged = false;

  Status Fatal(Status s) {
    fatal = true;
    return s;
  }

  // Everything after the LSN of a commit payload: a u32 record count and
  // that many length-prefixed record bodies. The whole batch shares one
  // frame (and one CRC), which is what makes a multi-record commit
  // all-or-nothing across a torn write.
  Status Commit(std::uint64_t lsn, ByteReader& in) {
    std::uint32_t n = 0;
    // Each record needs >= 5 bytes (u32 length + type byte).
    if (!in.GetU32(&n) || n > in.remaining() / 5 + 1) {
      return CorruptWalError("bad commit batch count");
    }
    for (std::uint32_t i = 0; i < n; ++i) {
      if (ctx != nullptr && !ctx->Poll()) return ctx->Check();
      std::string_view body;
      if (!in.GetString(&body)) {
        return CorruptWalError("truncated commit batch record");
      }
      if (Status s = Record(lsn, body); !s.ok()) return s;
    }
    if (!in.AtEnd()) {
      return CorruptWalError("trailing bytes after commit batch");
    }
    return Status::Ok();
  }

  Status Record(std::uint64_t lsn, std::string_view body) {
    ByteReader in(body);
    std::string_view type_byte;
    if (!in.GetBytes(1, &type_byte)) {
      return CorruptWalError("record body missing type byte");
    }
    switch (static_cast<WalRecordType>(type_byte[0])) {
      case WalRecordType::kPutRelation: {
        Result<Relation> rel = DecodeRelation(in, ctx);
        if (!rel.ok()) return rel.status();
        versions.erase(rel->name());
        lazy.erase(rel->name());
        state.db.PutRelation(std::move(*rel));
        break;
      }
      case WalRecordType::kDefineRule: {
        std::string_view rule;
        if (!in.GetString(&rule)) {
          return CorruptWalError("malformed DEFINE record");
        }
        state.rules.emplace_back(rule);
        break;
      }
      case WalRecordType::kPutFlock: {
        std::string_view name;
        std::string_view source;
        if (!in.GetString(&name) || !in.GetString(&source)) {
          return CorruptWalError("malformed FLOCK record");
        }
        state.flocks[std::string(name)] = std::string(source);
        break;
      }
      case WalRecordType::kSetKnob: {
        std::string_view key;
        std::int64_t value;
        if (!in.GetString(&key) || !in.GetI64(&value)) {
          return CorruptWalError("malformed knob record");
        }
        state.knobs[std::string(key)] = value;
        break;
      }
      case WalRecordType::kBanditOutcome: {
        BanditOutcome outcome;
        if (Status s = DecodeBanditOutcome(in, &outcome); !s.ok()) return s;
        state.bandit.Record(outcome);
        break;
      }
      case WalRecordType::kAppendRows:
        if (Status s = Append(lsn, body, in); !s.ok()) return s;
        break;
      default:
        return CorruptWalError("unknown WAL record type " +
                               std::to_string(type_byte[0]));
    }
    if (!in.AtEnd()) {
      return CorruptWalError("trailing bytes after WAL record body");
    }
    return Status::Ok();
  }

  Status Append(std::uint64_t lsn, std::string_view body, ByteReader& in) {
    std::string_view name_view;
    std::uint64_t base_rows = 0;
    std::uint32_t base_check = 0;
    if (!in.GetString(&name_view) || !in.GetU64(&base_rows) ||
        !in.GetU32(&base_check)) {
      return CorruptWalError("malformed append record");
    }
    Result<Relation> delta = DecodeRelation(in, ctx);
    if (!delta.ok()) return delta.status();
    const std::string name(name_view);
    const AppendId id{lsn, Crc32c(body)};
    // Appending this delta to any other base would build rows nobody
    // acknowledged: unlike a torn tail, that is not truncated away.
    auto mismatch = [&](const std::string& found) {
      return Fatal(CorruptWalError(
          "WAL record at LSN " + std::to_string(lsn) +
          ": append record for relation " + name +
          " does not match its base (logged against " +
          std::to_string(base_rows) + " rows, found " + found + ")"));
    };
    if (auto lz = lazy.find(name); lz != lazy.end()) {
      LazyStub& stub = lz->second;
      std::vector<AppendId>& chain = versions.find(name)->second.appends;
      if (chain.size() == stub.prev->appends.size() ||
          stub.prev->appends[chain.size()] != id) {
        diverged = true;
        return Fatal(FailedPreconditionError("replay left the version of " +
                                             name + " held before Open"));
      }
      // The first append's base is the sidecar. Appends keep a base's rows
      // as the leading rows, so a later one's base is the held handle's
      // first base_rows rows.
      std::uint64_t found =
          std::min<std::uint64_t>(base_rows, stub.held->size());
      std::uint32_t check = RowCheck(stub.held->rows(), found);
      if (chain.empty()) {
        Result<std::vector<Tuple>> last = stub.disk->ReadLastRow();
        if (!last.ok()) return Fatal(last.status());
        found = stub.disk->row_count();
        check = RowCheck(*last, last->size());
      }
      if (found != base_rows || check != base_check ||
          !CheckAppendable(*stub.held, *delta).ok()) {
        return mismatch(std::to_string(found) + " rows");
      }
      chain.push_back(id);
      return Status::Ok();
    }
    const Relation* base = state.db.Has(name) ? &state.db.Get(name) : nullptr;
    if (base == nullptr || base->size() != base_rows ||
        RowCheck(base->rows(), base->size()) != base_check ||
        !CheckAppendable(*base, *delta).ok()) {
      return mismatch(base == nullptr ? std::string("no relation")
                                      : std::to_string(base->size()) +
                                            " rows");
    }
    Result<Relation> appended = AppendRelation(*base, *delta);
    if (!appended.ok()) return appended.status();
    state.db.PutRelation(std::move(*appended));
    if (auto v = versions.find(name); v != versions.end()) {
      v->second.appends.push_back(id);
      v->second.rows = state.db.GetShared(name);
    }
    return Status::Ok();
  }
};

// A record body: its type byte, followed by what the caller appends.
std::string RecordBody(WalRecordType type) {
  return std::string(1, static_cast<char>(type));
}

// Rules + flocks + knobs — everything ahead of the relation section,
// shared verbatim by both snapshot layouts.
void EncodeStateHeader(const CatalogState& state, std::string& out) {
  PutU32(out, static_cast<std::uint32_t>(state.rules.size()));
  for (const std::string& rule : state.rules) PutString(out, rule);
  PutU32(out, static_cast<std::uint32_t>(state.flocks.size()));
  for (const auto& [name, source] : state.flocks) {
    PutString(out, name);
    PutString(out, source);
  }
  PutU32(out, static_cast<std::uint32_t>(state.knobs.size()));
  for (const auto& [key, value] : state.knobs) {
    PutString(out, key);
    PutI64(out, value);
  }
  state.bandit.EncodeTo(out);
}

Status DecodeStateHeader(ByteReader& in, CatalogState& state) {
  auto corrupt = [&](const char* what) {
    return CorruptWalError(std::string("snapshot: ") + what + " at byte " +
                           std::to_string(in.position()));
  };
  std::uint32_t n_rules;
  if (!in.GetU32(&n_rules) || n_rules > in.remaining() / 4) {
    return corrupt("bad rule count");
  }
  for (std::uint32_t i = 0; i < n_rules; ++i) {
    std::string_view rule;
    if (!in.GetString(&rule)) return corrupt("bad rule");
    state.rules.emplace_back(rule);
  }
  std::uint32_t n_flocks;
  if (!in.GetU32(&n_flocks) || n_flocks > in.remaining() / 8) {
    return corrupt("bad flock count");
  }
  for (std::uint32_t i = 0; i < n_flocks; ++i) {
    std::string_view name;
    std::string_view source;
    if (!in.GetString(&name) || !in.GetString(&source)) {
      return corrupt("bad flock");
    }
    state.flocks[std::string(name)] = std::string(source);
  }
  std::uint32_t n_knobs;
  if (!in.GetU32(&n_knobs) || n_knobs > in.remaining() / 12) {
    return corrupt("bad knob count");
  }
  for (std::uint32_t i = 0; i < n_knobs; ++i) {
    std::string_view key;
    std::int64_t value;
    if (!in.GetString(&key) || !in.GetI64(&value)) {
      return corrupt("bad knob");
    }
    state.knobs[std::string(key)] = value;
  }
  if (Status s = state.bandit.DecodeFrom(in); !s.ok()) return s;
  return Status::Ok();
}

}  // namespace

Result<std::string> EncodeCatalogState(const CatalogState& state,
                                       QueryContext* ctx) {
  std::string out;
  EncodeStateHeader(state, out);
  std::vector<std::string> names = state.db.Names();
  PutU32(out, static_cast<std::uint32_t>(names.size()));
  for (const std::string& name : names) {
    if (ctx != nullptr && !ctx->Poll()) return ctx->Check();
    if (Status s = EncodeRelation(state.db.Get(name), out, ctx); !s.ok()) {
      return s;
    }
  }
  return out;
}

Result<CatalogState> DecodeCatalogState(std::string_view bytes,
                                        QueryContext* ctx) {
  ByteReader in(bytes);
  CatalogState state;
  auto corrupt = [&](const char* what) {
    return CorruptWalError(std::string("snapshot: ") + what + " at byte " +
                           std::to_string(in.position()));
  };
  if (Status s = DecodeStateHeader(in, state); !s.ok()) return s;
  std::uint32_t n_relations;
  if (!in.GetU32(&n_relations) || n_relations > in.remaining() / 4) {
    return corrupt("bad relation count");
  }
  for (std::uint32_t i = 0; i < n_relations; ++i) {
    if (ctx != nullptr && !ctx->Poll()) return ctx->Check();
    Result<Relation> rel = DecodeRelation(in, ctx);
    if (!rel.ok()) return rel.status();
    state.db.PutRelation(std::move(*rel));
  }
  if (!in.AtEnd()) return corrupt("trailing bytes");
  return state;
}

Catalog::Catalog(Vfs& vfs, std::string dir, CatalogOptions options)
    : vfs_(vfs), dir_(std::move(dir)), options_(options) {}

Result<std::unique_ptr<Catalog>> Catalog::Open(Vfs& vfs, std::string dir,
                                               QueryContext* ctx,
                                               CatalogOptions options,
                                               const Catalog* previous) {
  std::uint64_t t0 = MetricsNowNs();
  if (Status s = vfs.CreateDirs(dir); !s.ok()) return s;
  std::unique_ptr<Catalog> cat(new Catalog(vfs, std::move(dir), options));
  if (previous != nullptr &&
      (&previous->vfs_ != &vfs || previous->dir_ != cat->dir_)) {
    previous = nullptr;
  }
  const std::string snap_path = cat->dir_ + "/" + std::string(kSnapshotFile);
  const std::string wal_path = cat->dir_ + "/" + std::string(kWalFile);

  // A stale rotation temp file is a crash artifact; the real snapshot /
  // log (if any) was never replaced, so the temp is garbage.
  if (vfs.Exists(snap_path + ".tmp")) vfs.Remove(snap_path + ".tmp");
  if (vfs.Exists(wal_path + ".tmp")) vfs.Remove(wal_path + ".tmp");

  std::uint64_t snap_lsn = 0;
  std::vector<std::string> referenced_pages;
  Replay replay{cat->state_, cat->versions_, ctx, {}};
  if (vfs.Exists(snap_path)) {
    Result<std::string> data = vfs.ReadFile(snap_path);
    if (!data.ok()) return data.status();
    std::string_view magic =
        std::string_view(*data).substr(0, kSnapshotMagic.size());
    if (magic != kSnapshotMagic && magic != kSnapshotMagic2) {
      return CorruptWalError("snapshot: bad magic in " + snap_path);
    }
    const bool paged_layout = magic == kSnapshotMagic2;
    std::string_view framed = std::string_view(*data).substr(magic.size());
    ParsedFrame frame = ParseFrame(framed, framed.size());
    if (frame.check == FrameCheck::kTruncated ||
        frame.size() != framed.size()) {
      return CorruptWalError("snapshot: truncated or oversized " +
                             snap_path);
    }
    if (frame.check == FrameCheck::kCorrupt) {
      return CorruptWalError("snapshot: checksum mismatch in " + snap_path);
    }
    ByteReader body(frame.payload);
    std::string_view state_bytes;
    if (!body.GetU64(&snap_lsn) ||
        !body.GetBytes(body.remaining(), &state_bytes)) {
      return CorruptWalError("snapshot: missing LSN in " + snap_path);
    }
    // QFSNAP02 is QFSNAP01 with a marker byte ahead of each relation:
    // inline bytes, or a stub resolving against its checksummed page
    // sidecar (a missing or corrupt sidecar is a typed error — a
    // referenced sidecar was made durable before this snapshot rotated
    // in, so its absence is real damage).
    ByteReader sin(state_bytes);
    if (Status s = DecodeStateHeader(sin, cat->state_); !s.ok()) return s;
    std::uint32_t n_relations = 0;
    if (!sin.GetU32(&n_relations) || n_relations > sin.remaining()) {
      return CorruptWalError("snapshot: bad relation count in " +
                             snap_path);
    }
    for (std::uint32_t i = 0; i < n_relations; ++i) {
      if (ctx != nullptr && !ctx->Poll()) return ctx->Check();
      std::string_view marker("\0", 1);  // QFSNAP01: inline
      if (paged_layout && !sin.GetBytes(1, &marker)) {
        return CorruptWalError("snapshot: missing relation marker in " +
                               snap_path);
      }
      if (static_cast<unsigned char>(marker[0]) == kRelInline) {
        Result<Relation> rel = DecodeRelation(sin, ctx);
        if (!rel.ok()) return rel.status();
        cat->state_.db.PutRelation(std::move(*rel));
      } else if (static_cast<unsigned char>(marker[0]) == kRelPaged) {
        std::string_view name;
        std::string_view file;
        std::uint64_t rows = 0;
        if (!sin.GetString(&name) || !sin.GetString(&file) ||
            !sin.GetU64(&rows)) {
          return CorruptWalError("snapshot: malformed paged stub in " +
                                 snap_path);
        }
        referenced_pages.emplace_back(file);
        Result<std::unique_ptr<DiskRelation>> disk = DiskRelation::Open(
            vfs, cat->PagesDir() + "/" + std::string(file),
            cat->options_.pool);
        if (!disk.ok()) return disk.status();
        if ((*disk)->name() != name || (*disk)->row_count() != rows) {
          return CorruptWalError("snapshot: paged stub mismatch for " +
                                 std::string(name));
        }
        // Left undecoded while the replaced catalog holds a live handle
        // recorded at a version of this very file; adopted once replay
        // has met that version's whole chain.
        Version& version = cat->versions_[std::string(name)];
        version = Version{std::string(file), {}, {}};
        const Version* prev = nullptr;
        if (previous != nullptr) {
          auto it = previous->versions_.find(name);
          if (it != previous->versions_.end() && it->second.file == file) {
            prev = &it->second;
          }
        }
        if (prev != nullptr && !prev->rows.expired()) {
          replay.lazy[std::string(name)] = {std::move(*disk),
                                            prev->rows.lock(), prev};
        } else {
          Result<Relation> rel = (*disk)->ReadAll(ctx);
          if (!rel.ok()) return rel.status();
          cat->state_.db.PutRelation(std::move(*rel));
          version.rows = cat->state_.db.GetShared(name);
        }
        ++cat->open_info_.paged_relations;
      } else {
        return CorruptWalError("snapshot: unknown relation marker in " +
                               snap_path);
      }
    }
    if (!sin.AtEnd()) {
      return CorruptWalError("snapshot: trailing bytes at byte " +
                             std::to_string(sin.position()));
    }
    cat->open_info_.snapshot_loaded = true;
    cat->open_info_.snapshot_lsn = snap_lsn;
  }

  // Replay the log. `good` counts frames that survive (applied or
  // stale-skipped); the first undecodable record — like a torn frame —
  // truncates the log from that point on. An append record whose base
  // does not match fails the Open instead, leaving the log as it is.
  Result<WalReadResult> wal_read = ReadWal(vfs, wal_path);
  if (!wal_read.ok()) return wal_read.status();
  std::uint64_t last_lsn = snap_lsn;
  std::size_t good = 0;
  std::uint64_t bad_body_bytes = 0;
  for (const std::string& payload : wal_read->payloads) {
    if (ctx != nullptr && !ctx->Poll()) return ctx->Check();
    ByteReader in(payload);
    std::uint64_t lsn = 0;
    Status applied = Status::Ok();
    if (!in.GetU64(&lsn)) {
      applied = CorruptWalError("record too short for LSN");
    } else if (lsn <= snap_lsn) {
      // Stale: logged before the snapshot that survived (the crash hit
      // between snapshot rotation and WAL reset). Skipping is the replay
      // idempotence rule.
      ++cat->open_info_.skipped_records;
    } else if (lsn != last_lsn + 1) {
      applied = CorruptWalError("LSN gap");
    } else {
      applied = replay.Commit(lsn, in);
      if (replay.diverged) return Open(vfs, cat->dir_, ctx, options);
      if (replay.fatal) return applied;
    }
    if (!applied.ok()) {
      if (IsGovernorAbort(applied)) return applied;
      break;  // truncate from this record
    }
    if (lsn > snap_lsn) {
      last_lsn = lsn;
      ++cat->open_info_.replayed_records;
    }
    ++good;
  }
  for (std::size_t i = good; i < wal_read->payloads.size(); ++i) {
    bad_body_bytes += 8 + wal_read->payloads[i].size();
  }
  cat->open_info_.truncated_bytes = wal_read->dropped_bytes + bad_body_bytes;
  for (auto& [name, stub] : replay.lazy) {
    Version& version = cat->versions_.find(name)->second;
    if (version.appends.size() != stub.prev->appends.size() ||
        (version.appends.empty() &&
         stub.held->size() != stub.disk->row_count())) {
      return Open(vfs, cat->dir_, ctx, options);  // replay stopped short
    }
    cat->state_.db.PutRelation(stub.held);
    version.rows = stub.held;
    ++cat->open_info_.adopted_relations;
    cat->open_info_.appends_adopted += version.appends.size();
  }
  cat->next_lsn_ = last_lsn + 1;

  cat->wal_ = std::make_unique<WalWriter>(vfs, wal_path, &cat->stats_);
  if (cat->open_info_.truncated_bytes > 0) {
    // Physically truncate to the valid prefix: appending after garbage
    // would orphan every future commit behind an undecodable record.
    std::vector<std::string> keep(wal_read->payloads.begin(),
                                  wal_read->payloads.begin() +
                                      static_cast<std::ptrdiff_t>(good));
    if (Status s = cat->wal_->Rewrite(keep); !s.ok()) return s;
  } else {
    if (Status s = cat->wal_->Open(); !s.ok()) return s;
  }

  // Crash leftovers: sidecars no snapshot references (written by a
  // checkpoint that never rotated in, or obsoleted by the one that did)
  // and temp spill files of statements a dead process never finished.
  cat->SweepOrphans(referenced_pages, /*sweep_spill=*/true);

  cat->stats_.replay_ns = MetricsNowNs() - t0;
  cat->open_info_.replay_ms = static_cast<double>(cat->stats_.replay_ns) / 1e6;
  cat->stats_.replayed_records = cat->open_info_.replayed_records;
  cat->stats_.truncated_bytes = cat->open_info_.truncated_bytes;
  return cat;
}

void Catalog::SweepOrphans(const std::vector<std::string>& referenced,
                           bool sweep_spill) {
  std::set<std::string> keep(referenced.begin(), referenced.end());
  Result<std::vector<std::string>> names = vfs_.ListDir(PagesDir());
  if (names.ok()) {
    for (const std::string& n : *names) {
      if (keep.count(n) != 0) continue;
      if (n.size() < kPageFileSuffix.size() ||
          n.compare(n.size() - kPageFileSuffix.size(), kPageFileSuffix.size(),
                    kPageFileSuffix) != 0) {
        continue;  // not ours; leave it alone
      }
      const std::string path = PagesDir() + "/" + n;
      if (options_.pool != nullptr) options_.pool->InvalidateFile(path);
      if (vfs_.Remove(path).ok()) ++open_info_.orphans_removed;
    }
  }
  // Spill files are swept at Open only: no statement can be running yet.
  // During a Checkpoint a concurrent statement may legitimately own live
  // spill files (the server runs statements in parallel).
  if (sweep_spill) {
    Result<std::size_t> spilled = RemoveSpillFiles(vfs_, SpillDir());
    if (spilled.ok()) open_info_.orphans_removed += *spilled;
  }
}

Status Catalog::Latch(Status s) {
  if (latched_.ok()) latched_ = s;
  return s;
}

Status Catalog::Commit(const std::vector<std::string>& bodies,
                       QueryContext* ctx) {
  (void)ctx;  // encoding polls upstream; the apply below must not abort
  if (!latched_.ok()) return latched_;
  // One payload, one frame, one CRC for the whole batch: a torn write can
  // only drop the commit entirely, never apply a subset of its records.
  std::string payload;
  PutU64(payload, next_lsn_);
  PutU32(payload, static_cast<std::uint32_t>(bodies.size()));
  for (const std::string& body : bodies) PutString(payload, body);
  if (Status s = wal_->Append({payload}); !s.ok()) {
    // The tail may hold a torn frame; appending more would put committed
    // records behind garbage, so the catalog goes read-only until reopen.
    return Latch(std::move(s));
  }
  ++next_lsn_;
  // Acknowledge only what replay will rebuild: apply the logged bytes.
  // No governor here — these bytes are durable, so the in-memory state
  // must follow unconditionally.
  ByteReader in(payload);
  std::uint64_t lsn = 0;
  Replay replay{state_, versions_, nullptr, {}};
  Status applied = in.GetU64(&lsn)
                       ? replay.Commit(lsn, in)
                       : CorruptWalError("self-encoded commit too short");
  if (!applied.ok()) {
    return Latch(InternalError("logged commit failed to apply: " +
                               applied.ToString()));
  }
  return Status::Ok();
}

Status Catalog::PutRelation(const Relation& rel, QueryContext* ctx) {
  return PutRelations({&rel}, ctx);
}

Status Catalog::PutRelations(const std::vector<const Relation*>& rels,
                             QueryContext* ctx) {
  std::vector<std::string> bodies;
  bodies.reserve(rels.size());
  for (const Relation* rel : rels) {
    if (rel->name().empty()) {
      return InvalidArgumentError("cannot persist an unnamed relation");
    }
    bodies.push_back(RecordBody(WalRecordType::kPutRelation));
    Status s = EncodeRelation(*rel, bodies.back(), ctx);
    if (!s.ok()) return s;  // governor abort
  }
  return Commit(bodies, ctx);
}

Status Catalog::AppendRows(const std::string& name, const Relation& delta,
                           QueryContext* ctx) {
  if (!state_.db.Has(name)) {
    return FailedPreconditionError("cannot append to missing relation " +
                                   name);
  }
  const Relation& base = state_.db.Get(name);
  // Refused before logging: a logged record that cannot apply latches.
  if (Status s = CheckAppendable(base, delta); !s.ok()) return s;
  std::string body = RecordBody(WalRecordType::kAppendRows);
  PutString(body, name);
  PutU64(body, static_cast<std::uint64_t>(base.size()));
  PutU32(body, RowCheck(base.rows(), base.size()));
  if (Status s = EncodeRelation(delta, body, ctx); !s.ok()) return s;
  return Commit({std::move(body)}, ctx);
}

Status Catalog::DefineRule(const std::string& rule_text) {
  std::string body = RecordBody(WalRecordType::kDefineRule);
  PutString(body, rule_text);
  return Commit({std::move(body)}, nullptr);
}

Status Catalog::PutFlock(const std::string& name, const std::string& source) {
  std::string body = RecordBody(WalRecordType::kPutFlock);
  PutString(body, name);
  PutString(body, source);
  return Commit({std::move(body)}, nullptr);
}

Status Catalog::SetKnob(const std::string& key, std::int64_t value) {
  std::string body = RecordBody(WalRecordType::kSetKnob);
  PutString(body, key);
  PutI64(body, value);
  return Commit({std::move(body)}, nullptr);
}

Status Catalog::RecordBanditOutcome(const BanditOutcome& outcome) {
  std::string body = RecordBody(WalRecordType::kBanditOutcome);
  EncodeBanditOutcome(outcome, body);
  return Commit({std::move(body)}, nullptr);
}

Status Catalog::Checkpoint(QueryContext* ctx) {
  if (!latched_.ok()) return latched_;
  std::uint64_t t0 = MetricsNowNs();
  const std::uint64_t snap_lsn = next_lsn_ - 1;

  // Relations going out-of-core this checkpoint. Estimated (not encoded)
  // size keeps the decision O(1) per relation and deterministic.
  std::vector<std::string> names = state_.db.Names();
  std::set<std::string> paged;
  for (const std::string& name : names) {
    if (SafeFileName(name) &&
        EstimatedRelationBytes(state_.db.Get(name)) >=
            options_.paged_threshold_bytes) {
      paged.insert(name);
    }
  }

  std::vector<std::string> referenced;
  std::map<std::string, Version, std::less<>> next;  // the new versions_
  std::uint64_t written = 0;
  if (!paged.empty()) {
    // A relation whose version record is its sidecar alone (no appends)
    // at an unchanged handle keeps that file. Changed ones get new
    // sidecars first: every new page file is written and fsynced, then
    // the pages directory entry is fsynced, all BEFORE the snapshot that
    // references them rotates in. A crash anywhere in between leaves the
    // old snapshot pointing at old (still present) sidecars; the new
    // files are unreferenced orphans swept at the next Open. Like the
    // snapshot rotation itself, a failure here latches nothing — the old
    // snapshot and the whole WAL are intact, so a retry is safe.
    if (Status s = vfs_.CreateDirs(PagesDir()); !s.ok()) return s;
    for (const std::string& name : paged) {
      std::shared_ptr<const Relation> rel = state_.db.GetShared(name);
      auto it = versions_.find(name);
      if (it != versions_.end() && it->second.appends.empty() &&
          !it->second.rows.owner_before(rel) &&
          !rel.owner_before(it->second.rows)) {
        next.emplace(name, it->second);
        continue;
      }
      const std::string file = name + "." + std::to_string(snap_lsn) +
                               std::string(kPageFileSuffix);
      Result<PagedWriteInfo> w =
          WritePagedRelation(vfs_, PagesDir() + "/" + file, *rel, ctx);
      if (!w.ok()) return w.status();
      next.emplace(name, Version{file, {}, rel});
      ++written;
    }
    if (written > 0) {
      if (Status s = vfs_.SyncDir(PagesDir()); !s.ok()) return s;
      stats_.fsyncs += written + 1;
    }
    for (const auto& [name, version] : next) referenced.push_back(version.file);
  }

  // All inline, this is the QFSNAP01 layout, byte-identical to
  // EncodeCatalogState and earlier builds; QFSNAP02 puts a marker byte
  // ahead of each relation.
  std::string payload;
  PutU64(payload, snap_lsn);
  EncodeStateHeader(state_, payload);
  PutU32(payload, static_cast<std::uint32_t>(names.size()));
  for (const std::string& name : names) {
    if (ctx != nullptr && !ctx->Poll()) return ctx->Check();
    const Relation& rel = state_.db.Get(name);
    if (paged.count(name) != 0) {
      payload.push_back(static_cast<char>(kRelPaged));
      PutString(payload, name);
      PutString(payload, next.at(name).file);
      PutU64(payload, static_cast<std::uint64_t>(rel.size()));
    } else {
      if (!paged.empty()) payload.push_back(static_cast<char>(kRelInline));
      if (Status s = EncodeRelation(rel, payload, ctx); !s.ok()) return s;
    }
  }
  const std::string_view magic =
      paged.empty() ? kSnapshotMagic : kSnapshotMagic2;

  std::string file_bytes;
  file_bytes.reserve(magic.size() + kFrameHeaderBytes + payload.size());
  file_bytes += magic;
  AppendFrame(file_bytes, payload);

  const std::string snap_path = dir_ + "/" + std::string(kSnapshotFile);
  if (Status s = AtomicWriteFile(vfs_, snap_path, file_bytes); !s.ok()) {
    // A failed rotation leaves the previous snapshot and the whole WAL
    // intact — nothing is torn, so the catalog keeps accepting commits
    // and the caller may simply retry CHECKPOINT. Latching is reserved
    // for WAL failures, where the tail may actually be damaged.
    return s;
  }
  stats_.fsyncs += 2;  // AtomicWriteFile: file sync + dir sync
  // The snapshot naming these sidecars is the durable one now.
  versions_ = std::move(next);
  // Only now, with the snapshot durable, may the log shrink. A crash
  // in between replays stale records, which LSN skipping neutralizes.
  // The reset is an atomic rewrite, so a failure cannot tear the log —
  // but it can leave the writer without an append handle, so the
  // catalog still latches until reopen.
  if (Status s = wal_->Reset(); !s.ok()) {
    return Latch(std::move(s));
  }
  // Previous-checkpoint sidecars are unreferenced now; sweep them (and
  // drop their cached pages). Best-effort — failures leave garbage for
  // the next Open's sweep, never damage.
  SweepOrphans(referenced, /*sweep_spill=*/false);
  ++stats_.snapshots;
  stats_.sidecars_written += written;
  stats_.sidecars_kept += versions_.size() - written;
  stats_.snapshot_bytes += file_bytes.size();
  stats_.snapshot_ns += MetricsNowNs() - t0;
  return Status::Ok();
}

}  // namespace qf
