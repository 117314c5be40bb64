// Unit tests for the durability stack: CRC32C, binary serialization
// (roundtrip + corrupt-input safety), MemVfs crash semantics, atomic
// writes under injected faults, WAL torn-tail truncation, and the
// Catalog's commit/checkpoint/recovery/latch behavior.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/crc32c.h"
#include "common/resource.h"
#include "common/status.h"
#include "common/vfs.h"
#include "relational/relation.h"
#include "relational/serialize.h"
#include "relational/tsv.h"
#include "storage/catalog.h"
#include "storage/wal.h"

namespace qf {
namespace {

// ---------------------------------------------------------------- CRC32C

TEST(Crc32cTest, KnownVectors) {
  // RFC 3720 / LevelDB test vectors for CRC32C (Castagnoli).
  EXPECT_EQ(Crc32c(""), 0x00000000u);
  EXPECT_EQ(Crc32c("a"), 0xC1D04330u);
  EXPECT_EQ(Crc32c("123456789"), 0xE3069283u);
  std::string zeros(32, '\0');
  EXPECT_EQ(Crc32c(zeros), 0x8A9136AAu);
}

TEST(Crc32cTest, ExtendMatchesOneShot) {
  std::string data = "hello world, flocks";
  std::uint32_t whole = Crc32c(data);
  std::uint32_t split = Crc32cExtend(Crc32cExtend(0, data.substr(0, 7)),
                                     data.substr(7));
  EXPECT_EQ(whole, split);
}

// A deterministic pseudo-random byte buffer (xorshift64).
std::string RandomBytes(std::size_t n, std::uint64_t seed) {
  std::string out(n, '\0');
  for (char& c : out) {
    seed ^= seed << 13;
    seed ^= seed >> 7;
    seed ^= seed << 17;
    c = static_cast<char>(seed >> 56);
  }
  return out;
}

TEST(Crc32cTest, KnownVectorsPortable) {
  EXPECT_EQ(detail::Crc32cExtendPortable(0, "123456789"), 0xE3069283u);
  EXPECT_EQ(detail::Crc32cExtendPortable(0, std::string(32, '\0')),
            0x8A9136AAu);
}

TEST(Crc32cTest, DispatchedMatchesPortableAtEveryLengthAndAlignment) {
  // The word loop and the byte tail split differently at each length and
  // start offset; every split must agree with the portable tables.
  std::string buf = RandomBytes(300 + 8, 1);
  for (std::size_t align = 0; align < 8; ++align) {
    for (std::size_t len = 0; len <= 300; ++len) {
      std::string_view piece(buf.data() + align, len);
      ASSERT_EQ(Crc32c(piece), detail::Crc32cExtendPortable(0, piece))
          << "align " << align << " len " << len;
    }
  }
}

TEST(Crc32cTest, DispatchedMatchesPortableOnOneMiB) {
  std::string buf = RandomBytes(1 << 20, 7);
  EXPECT_EQ(Crc32c(buf), detail::Crc32cExtendPortable(0, buf));
  EXPECT_EQ(Crc32cExtend(0x12345678u, buf),
            detail::Crc32cExtendPortable(0x12345678u, buf));
}

TEST(Crc32cTest, ExtendSplitAtEveryPointMatchesOneShot) {
  std::string data = RandomBytes(64, 3);
  std::string_view view(data);
  std::uint32_t whole = detail::Crc32cExtendPortable(0, view);
  for (std::size_t cut = 0; cut <= view.size(); ++cut) {
    EXPECT_EQ(Crc32cExtend(Crc32cExtend(0, view.substr(0, cut)),
                           view.substr(cut)),
              whole)
        << "cut " << cut;
  }
}

TEST(Crc32cTest, MaskRoundTripsAndDiffers) {
  std::uint32_t crc = Crc32c("payload");
  EXPECT_NE(Crc32cMask(crc), crc);
  EXPECT_EQ(Crc32cUnmask(Crc32cMask(crc)), crc);
}

// ----------------------------------------------------------- serialize

Relation SampleRelation() {
  Relation r("sample", Schema({"A", "B", "C"}));
  r.AddRow({Value(1), Value("x"), Value(1.5)});
  r.AddRow({Value(2), Value("y"), Value(-2.25)});
  r.AddRow({Value(-7), Value(""), Value(0.0)});
  return r;
}

TEST(SerializeTest, RelationRoundTrip) {
  Relation original = SampleRelation();
  std::string bytes;
  ASSERT_TRUE(EncodeRelation(original, bytes).ok());
  ByteReader in(bytes);
  Result<Relation> decoded = DecodeRelation(in);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_TRUE(in.AtEnd());
  // Deterministic: re-encoding yields identical bytes.
  std::string again;
  ASSERT_TRUE(EncodeRelation(*decoded, again).ok());
  EXPECT_EQ(bytes, again);
  EXPECT_EQ(decoded->name(), "sample");
  EXPECT_EQ(decoded->size(), 3u);
  EXPECT_TRUE(decoded->Contains({Value(2), Value("y"), Value(-2.25)}));
}

TEST(SerializeTest, EveryTruncationFailsCleanly) {
  std::string bytes;
  ASSERT_TRUE(EncodeRelation(SampleRelation(), bytes).ok());
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    ByteReader in(std::string_view(bytes).substr(0, len));
    Result<Relation> decoded = DecodeRelation(in);
    EXPECT_FALSE(decoded.ok()) << "prefix length " << len;
  }
}

TEST(SerializeTest, EverySingleBitFlipIsSafe) {
  // Decoding must never crash or hang, whatever a bit flip produces.
  // (Some flips still decode — e.g. a flipped value payload bit — so
  // only absence of UB/aborts is asserted, not failure.)
  std::string bytes;
  ASSERT_TRUE(EncodeRelation(SampleRelation(), bytes).ok());
  for (std::size_t bit = 0; bit < bytes.size() * 8; ++bit) {
    std::string mutated = bytes;
    mutated[bit / 8] = static_cast<char>(mutated[bit / 8] ^ (1u << (bit % 8)));
    ByteReader in(mutated);
    Result<Relation> decoded = DecodeRelation(in);
    if (!decoded.ok()) {
      EXPECT_EQ(decoded.status().code(), StatusCode::kCorruptWal)
          << "bit " << bit;
    }
  }
}

TEST(SerializeTest, HugeRowCountIsRejectedNotLooped) {
  std::string bytes;
  PutString(bytes, "evil");
  PutU32(bytes, 1);  // arity
  PutString(bytes, "A");
  PutU64(bytes, 0x0FFFFFFFFFFFFFFFull);  // absurd row count, no payload
  ByteReader in(bytes);
  Result<Relation> decoded = DecodeRelation(in);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kCorruptWal);
}

TEST(SerializeTest, CatalogStateRoundTripIsBitIdentical) {
  CatalogState state;
  state.db.PutRelation(SampleRelation());
  Relation other("zeta", Schema({"K"}));
  other.AddRow({Value(9)});
  state.db.PutRelation(std::move(other));
  state.rules = {"P(X) :- E(X, Y)"};
  state.flocks["f"] = "QUERY ... FILTER COUNT >= 2";
  state.knobs["THREADS"] = 4;
  Result<std::string> bytes = EncodeCatalogState(state);
  ASSERT_TRUE(bytes.ok());
  Result<CatalogState> decoded = DecodeCatalogState(*bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  Result<std::string> again = EncodeCatalogState(*decoded);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*bytes, *again);
  EXPECT_EQ(decoded->rules, state.rules);
  EXPECT_EQ(decoded->flocks, state.flocks);
  EXPECT_EQ(decoded->knobs, state.knobs);
}

// ---------------------------------------------------------------- MemVfs

Status WriteWhole(Vfs& vfs, const std::string& path, std::string_view data,
                  bool sync) {
  Result<std::unique_ptr<WritableFile>> f = vfs.OpenTrunc(path);
  if (!f.ok()) return f.status();
  if (Status s = (*f)->Append(data); !s.ok()) return s;
  if (sync) {
    if (Status s = (*f)->Sync(); !s.ok()) return s;
  }
  return (*f)->Close();
}

TEST(MemVfsTest, UnsyncedContentIsLostOnCrash) {
  MemVfs vfs;
  ASSERT_TRUE(WriteWhole(vfs, "f", "durable", true).ok());
  ASSERT_TRUE(vfs.SyncDir(".").ok());
  Result<std::unique_ptr<WritableFile>> f = vfs.OpenAppend("f");
  ASSERT_TRUE(f.ok());
  ASSERT_TRUE((*f)->Append(" lost").ok());  // no Sync
  vfs.Crash();
  Result<std::string> data = vfs.ReadFile("f");
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(*data, "durable");
}

TEST(MemVfsTest, UnsyncedDirectoryEntryVanishesOnCrash) {
  MemVfs vfs;
  ASSERT_TRUE(WriteWhole(vfs, "new_file", "abc", true).ok());
  // File content synced but the directory entry never was.
  vfs.Crash();
  EXPECT_FALSE(vfs.Exists("new_file"));
}

TEST(MemVfsTest, SyncedRenameSurvivesCrashUnsyncedDoesNot) {
  MemVfs vfs;
  ASSERT_TRUE(WriteWhole(vfs, "a", "A", true).ok());
  ASSERT_TRUE(vfs.SyncDir(".").ok());
  ASSERT_TRUE(vfs.Rename("a", "b").ok());
  vfs.Crash();  // rename not SyncDir'ed: rolls back
  EXPECT_TRUE(vfs.Exists("a"));
  EXPECT_FALSE(vfs.Exists("b"));

  ASSERT_TRUE(vfs.Rename("a", "b").ok());
  ASSERT_TRUE(vfs.SyncDir(".").ok());
  vfs.Crash();
  EXPECT_FALSE(vfs.Exists("a"));
  ASSERT_TRUE(vfs.Exists("b"));
  EXPECT_EQ(*vfs.ReadFile("b"), "A");
}

TEST(MemVfsTest, StaleHandlesFailAfterCrash) {
  MemVfs vfs;
  Result<std::unique_ptr<WritableFile>> f = vfs.OpenTrunc("f");
  ASSERT_TRUE(f.ok());
  vfs.Crash();
  EXPECT_EQ((*f)->Append("x").code(), StatusCode::kIoError);
}

TEST(MemVfsTest, InPlaceTruncationOfDurableFileIsDurableAtCrash) {
  MemVfs vfs;
  ASSERT_TRUE(WriteWhole(vfs, "f", "old-durable", true).ok());
  ASSERT_TRUE(vfs.SyncDir(".").ok());
  // POSIX may persist the O_TRUNC before the rewrite syncs; the model is
  // adversarial, so a crash in that window yields an EMPTY file — the
  // old bytes are gone and the new ones never landed.
  Result<std::unique_ptr<WritableFile>> f = vfs.OpenTrunc("f");
  ASSERT_TRUE(f.ok());
  ASSERT_TRUE((*f)->Append("new-unsynced").ok());
  vfs.Crash();
  Result<std::string> data = vfs.ReadFile("f");
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(*data, "");
}

TEST(MemVfsTest, MissingFileIsNotFound) {
  MemVfs vfs;
  EXPECT_EQ(vfs.ReadFile("nope").status().code(), StatusCode::kNotFound);
}

// --------------------------------------------------- atomic whole-file IO

TEST(AtomicWriteTest, EnospcNeverLeavesTruncatedDestination) {
  MemVfs base;
  ASSERT_TRUE(AtomicWriteFile(base, "data.tsv", "old content").ok());
  // Sweep the injected failure over every mutating op of the rewrite.
  for (std::uint64_t fail_at = 1;; ++fail_at) {
    FaultVfs vfs(base);
    FaultPlan plan;
    plan.fail_at_op = fail_at;
    vfs.set_plan(plan);
    Status s = AtomicWriteFile(vfs, "data.tsv", "new content, longer");
    Result<std::string> after = base.ReadFile("data.tsv");
    ASSERT_TRUE(after.ok());
    if (s.ok()) {
      // The plan's op index lies beyond the workload: sweep complete.
      EXPECT_EQ(*after, "new content, longer");
      EXPECT_LT(vfs.op_count(), fail_at);
      break;
    }
    EXPECT_EQ(s.code(), StatusCode::kIoError);
    // Never torn: the destination is the old content or the complete new
    // content (a dir fsync failing *after* the rename reports an error
    // even though the rename itself landed).
    EXPECT_TRUE(*after == "old content" || *after == "new content, longer")
        << "fail_at " << fail_at << ": got \"" << *after << "\"";
    // Restore for the next iteration (the temp may or may not linger;
    // AtomicWriteFile must cope either way).
    ASSERT_TRUE(AtomicWriteFile(base, "data.tsv", "old content").ok());
  }
}

TEST(AtomicStoreTsvTest, FaultsNeverTruncateAndErrorsAreTyped) {
  Relation rel = SampleRelation();
  MemVfs base;
  ASSERT_TRUE(StoreTsv(rel, "rel.tsv", &base).ok());
  Result<std::string> good = base.ReadFile("rel.tsv");
  ASSERT_TRUE(good.ok());
  for (std::uint64_t fail_at = 1; fail_at <= 8; ++fail_at) {
    FaultVfs vfs(base);
    FaultPlan plan;
    plan.fail_at_op = fail_at;
    plan.fail_enospc = true;
    vfs.set_plan(plan);
    Status s = StoreTsv(rel, "rel.tsv", &vfs);
    Result<std::string> after = base.ReadFile("rel.tsv");
    ASSERT_TRUE(after.ok());
    EXPECT_EQ(*after, *good) << "fail_at " << fail_at;
    if (!s.ok()) EXPECT_EQ(s.code(), StatusCode::kIoError);
  }
}

TEST(LoadTsvTest, MalformedRowReportsLineAndByteOffset) {
  MemVfs vfs;
  // Row 3 (byte offset 8) has the wrong column count.
  ASSERT_TRUE(AtomicWriteFile(vfs, "bad.tsv", "A\tB\n1\t2\n3\n4\t5\n").ok());
  Result<Relation> rel = LoadTsv("bad.tsv", "bad", &vfs);
  ASSERT_FALSE(rel.ok());
  EXPECT_NE(rel.status().message().find("bad.tsv:3:"), std::string::npos)
      << rel.status().ToString();
  EXPECT_NE(rel.status().message().find("byte offset 8"), std::string::npos)
      << rel.status().ToString();
}

// ------------------------------------------------------------------- WAL

TEST(WalTest, TornTailIsTruncatedWholeFramesSurvive) {
  std::string log;
  AppendFrame(log, "first");
  AppendFrame(log, "second");
  std::string frame3;
  AppendFrame(frame3, "third-never-finished");
  // Append only part of the third frame: a torn write.
  log += frame3.substr(0, frame3.size() - 5);
  WalReadResult parsed = ParseWal(log);
  ASSERT_EQ(parsed.payloads.size(), 2u);
  EXPECT_EQ(parsed.payloads[0], "first");
  EXPECT_EQ(parsed.payloads[1], "second");
  EXPECT_EQ(parsed.dropped_bytes, frame3.size() - 5);
}

TEST(WalTest, CorruptMiddleRecordDropsItAndEverythingAfter) {
  std::string log;
  AppendFrame(log, "aaaa");
  std::size_t second_start = log.size();
  AppendFrame(log, "bbbb");
  AppendFrame(log, "cccc");
  log[second_start + 9] ^= 0x40;  // flip a payload bit of record 2
  WalReadResult parsed = ParseWal(log);
  ASSERT_EQ(parsed.payloads.size(), 1u);
  EXPECT_EQ(parsed.payloads[0], "aaaa");
  EXPECT_EQ(parsed.valid_bytes, second_start);
}

TEST(WalTest, GarbageLogIsEmptyNotFatal) {
  WalReadResult parsed = ParseWal("not a wal at all, just text bytes");
  EXPECT_TRUE(parsed.payloads.empty());
  EXPECT_GT(parsed.dropped_bytes, 0u);
}

// --------------------------------------------------------------- Catalog

std::string StateBytes(const Catalog& catalog) {
  Result<std::string> bytes = EncodeCatalogState(catalog.state());
  EXPECT_TRUE(bytes.ok());
  return bytes.ok() ? *bytes : std::string();
}

TEST(CatalogTest, CommitsSurviveReopen) {
  MemVfs vfs;
  Result<std::unique_ptr<Catalog>> cat = Catalog::Open(vfs, "cat");
  ASSERT_TRUE(cat.ok()) << cat.status().ToString();
  ASSERT_TRUE((*cat)->PutRelation(SampleRelation()).ok());
  ASSERT_TRUE((*cat)->DefineRule("P(X) :- E(X, Y)").ok());
  ASSERT_TRUE((*cat)->PutFlock("f", "QUERY ... FILTER COUNT >= 2").ok());
  ASSERT_TRUE((*cat)->SetKnob("THREADS", 4).ok());
  std::string acked = StateBytes(**cat);

  vfs.Crash();  // commits fsync, so everything acknowledged survives
  Result<std::unique_ptr<Catalog>> reopened = Catalog::Open(vfs, "cat");
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(StateBytes(**reopened), acked);
  EXPECT_EQ((*reopened)->open_info().replayed_records, 4u);
  EXPECT_FALSE((*reopened)->open_info().snapshot_loaded);
}

TEST(CatalogTest, CheckpointShrinksWalAndPreservesState) {
  MemVfs vfs;
  Result<std::unique_ptr<Catalog>> cat = Catalog::Open(vfs, "cat");
  ASSERT_TRUE(cat.ok());
  ASSERT_TRUE((*cat)->PutRelation(SampleRelation()).ok());
  ASSERT_TRUE((*cat)->SetKnob("THREADS", 2).ok());
  std::string acked = StateBytes(**cat);
  ASSERT_TRUE((*cat)->Checkpoint().ok());
  EXPECT_EQ((*cat)->stats().snapshots, 1u);
  Result<std::string> wal = vfs.ReadFile("cat/catalog.wal");
  ASSERT_TRUE(wal.ok());
  EXPECT_TRUE(wal->empty());

  vfs.Crash();
  Result<std::unique_ptr<Catalog>> reopened = Catalog::Open(vfs, "cat");
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(StateBytes(**reopened), acked);
  EXPECT_TRUE((*reopened)->open_info().snapshot_loaded);
  EXPECT_EQ((*reopened)->open_info().replayed_records, 0u);
}

TEST(CatalogTest, CommitsAfterCheckpointReplayOnTop) {
  MemVfs vfs;
  Result<std::unique_ptr<Catalog>> cat = Catalog::Open(vfs, "cat");
  ASSERT_TRUE(cat.ok());
  ASSERT_TRUE((*cat)->SetKnob("A", 1).ok());
  ASSERT_TRUE((*cat)->Checkpoint().ok());
  ASSERT_TRUE((*cat)->SetKnob("B", 2).ok());
  std::string acked = StateBytes(**cat);
  vfs.Crash();
  Result<std::unique_ptr<Catalog>> reopened = Catalog::Open(vfs, "cat");
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(StateBytes(**reopened), acked);
  EXPECT_TRUE((*reopened)->open_info().snapshot_loaded);
  EXPECT_EQ((*reopened)->open_info().replayed_records, 1u);
}

TEST(CatalogTest, TornWalTailIsDroppedOnReopen) {
  MemVfs vfs;
  {
    Result<std::unique_ptr<Catalog>> cat = Catalog::Open(vfs, "cat");
    ASSERT_TRUE(cat.ok());
    ASSERT_TRUE((*cat)->SetKnob("A", 1).ok());
  }
  // Simulate a torn final record by appending garbage (synced, so it
  // survives the crash and recovery must actively drop it).
  {
    Result<std::unique_ptr<WritableFile>> f = vfs.OpenAppend("cat/catalog.wal");
    ASSERT_TRUE(f.ok());
    ASSERT_TRUE((*f)->Append("\x40\x00\x00\x00garbage").ok());
    ASSERT_TRUE((*f)->Sync().ok());
  }
  Result<std::unique_ptr<Catalog>> reopened = Catalog::Open(vfs, "cat");
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->open_info().replayed_records, 1u);
  EXPECT_GT((*reopened)->open_info().truncated_bytes, 0u);
  // The file was rewritten to the valid prefix; appends work again.
  ASSERT_TRUE((*reopened)->SetKnob("B", 2).ok());
  std::string acked = StateBytes(**reopened);
  Result<std::unique_ptr<Catalog>> again = Catalog::Open(vfs, "cat");
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(StateBytes(**again), acked);
}

TEST(CatalogTest, CorruptSnapshotIsATypedError) {
  MemVfs vfs;
  {
    Result<std::unique_ptr<Catalog>> cat = Catalog::Open(vfs, "cat");
    ASSERT_TRUE(cat.ok());
    ASSERT_TRUE((*cat)->SetKnob("A", 1).ok());
    ASSERT_TRUE((*cat)->Checkpoint().ok());
  }
  Result<std::string> snap = vfs.ReadFile("cat/catalog.snap");
  ASSERT_TRUE(snap.ok());
  std::string mutated = *snap;
  mutated[mutated.size() / 2] ^= 0x01;
  ASSERT_TRUE(AtomicWriteFile(vfs, "cat/catalog.snap", mutated).ok());
  Result<std::unique_ptr<Catalog>> reopened = Catalog::Open(vfs, "cat");
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kCorruptWal);
}

TEST(CatalogTest, IoErrorLatchesTheCatalogReadOnly) {
  MemVfs base;
  FaultVfs vfs(base);
  Result<std::unique_ptr<Catalog>> cat = Catalog::Open(vfs, "cat");
  ASSERT_TRUE(cat.ok());
  ASSERT_TRUE((*cat)->SetKnob("A", 1).ok());
  FaultPlan plan;
  plan.fail_at_op = vfs.op_count() + 1;  // next mutating op fails
  vfs.set_plan(plan);
  Status failed = (*cat)->SetKnob("B", 2);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.code(), StatusCode::kIoError);
  // Latched: even though the fault was one-shot, mutations stay refused.
  Status after = (*cat)->SetKnob("C", 3);
  EXPECT_EQ(after.code(), StatusCode::kIoError);
  EXPECT_FALSE((*cat)->Healthy().ok());
  // Reopening recovers the acknowledged prefix.
  Result<std::unique_ptr<Catalog>> reopened = Catalog::Open(base, "cat");
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->state().knobs.count("A"), 1u);
  EXPECT_EQ((*reopened)->state().knobs.count("C"), 0u);
}

TEST(CatalogTest, SnapshotWriteFailureDoesNotLatchTheCatalog) {
  MemVfs base;
  FaultVfs vfs(base);
  Result<std::unique_ptr<Catalog>> cat = Catalog::Open(vfs, "cat");
  ASSERT_TRUE(cat.ok());
  ASSERT_TRUE((*cat)->SetKnob("A", 1).ok());
  FaultPlan plan;
  plan.fail_at_op = vfs.op_count() + 1;  // first op of the rotation
  vfs.set_plan(plan);
  Status failed = (*cat)->Checkpoint();
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.code(), StatusCode::kIoError);
  // A failed rotation leaves the old snapshot and the whole WAL intact:
  // the catalog stays writable and the checkpoint is retryable.
  EXPECT_TRUE((*cat)->Healthy().ok());
  ASSERT_TRUE((*cat)->SetKnob("B", 2).ok());
  ASSERT_TRUE((*cat)->Checkpoint().ok());
  base.Crash();
  Result<std::unique_ptr<Catalog>> reopened = Catalog::Open(base, "cat");
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->state().knobs.count("A"), 1u);
  EXPECT_EQ((*reopened)->state().knobs.count("B"), 1u);
}

// Builds a catalog with two acknowledged commits and a synced garbage
// tail on the WAL, so the next Open must rewrite the log to its valid
// prefix — the recovery path the crash sweep below aims at.
void BuildTornWalCatalog(MemVfs& vfs) {
  {
    Result<std::unique_ptr<Catalog>> cat = Catalog::Open(vfs, "cat");
    ASSERT_TRUE(cat.ok()) << cat.status().ToString();
    ASSERT_TRUE((*cat)->SetKnob("A", 1).ok());
    ASSERT_TRUE((*cat)->SetKnob("B", 2).ok());
  }
  Result<std::unique_ptr<WritableFile>> f = vfs.OpenAppend("cat/catalog.wal");
  ASSERT_TRUE(f.ok());
  ASSERT_TRUE((*f)->Append("\x40\x00\x00\x00torn").ok());
  ASSERT_TRUE((*f)->Sync().ok());
}

TEST(CatalogTest, CrashDuringTornTailRewriteKeepsAcknowledgedCommits) {
  // The regression this guards: rewriting the WAL via an in-place
  // truncation opens a window where a crash has durably emptied the log
  // but the valid prefix is not yet rewritten — acknowledged commits
  // gone. The rewrite must be atomic: crash it at every I/O operation
  // and both commits must always survive.
  std::uint64_t total_ops = 0;
  {
    MemVfs base;
    BuildTornWalCatalog(base);
    FaultVfs vfs(base);
    Result<std::unique_ptr<Catalog>> cat = Catalog::Open(vfs, "cat");
    ASSERT_TRUE(cat.ok()) << cat.status().ToString();
    EXPECT_GT((*cat)->open_info().truncated_bytes, 0u);
    total_ops = vfs.op_count();
  }
  ASSERT_GT(total_ops, 0u);
  for (std::uint64_t c = 1; c <= total_ops; ++c) {
    for (bool power_loss : {true, false}) {
      MemVfs base;
      BuildTornWalCatalog(base);
      {
        FaultVfs vfs(base);
        FaultPlan plan;
        plan.crash_at_op = c;
        plan.torn_write_bytes = 2;
        vfs.set_plan(plan);
        Result<std::unique_ptr<Catalog>> cat = Catalog::Open(vfs, "cat");
        EXPECT_FALSE(cat.ok()) << "crash point " << c << " never fired";
      }
      if (power_loss) base.Crash();
      Result<std::unique_ptr<Catalog>> reopened = Catalog::Open(base, "cat");
      ASSERT_TRUE(reopened.ok())
          << "crash at op " << c << ": " << reopened.status().ToString();
      EXPECT_EQ((*reopened)->state().knobs.count("A"), 1u)
          << "crash at op " << c << ", power_loss " << power_loss;
      EXPECT_EQ((*reopened)->state().knobs.count("B"), 1u)
          << "crash at op " << c << ", power_loss " << power_loss;
    }
  }
}

TEST(CatalogTest, BatchCommitIsAllOrNothing) {
  MemVfs vfs;
  Result<std::unique_ptr<Catalog>> cat = Catalog::Open(vfs, "cat");
  ASSERT_TRUE(cat.ok());
  Relation r1("r1", Schema({"A"}));
  r1.AddRow({Value(1)});
  Relation r2("r2", Schema({"B"}));
  r2.AddRow({Value(2)});
  std::uint64_t fsyncs_before = (*cat)->stats().fsyncs;
  ASSERT_TRUE((*cat)->PutRelations({&r1, &r2}).ok());
  EXPECT_EQ((*cat)->stats().fsyncs, fsyncs_before + 1);  // one commit
  vfs.Crash();
  Result<std::unique_ptr<Catalog>> reopened = Catalog::Open(vfs, "cat");
  ASSERT_TRUE(reopened.ok());
  EXPECT_TRUE((*reopened)->state().db.Has("r1"));
  EXPECT_TRUE((*reopened)->state().db.Has("r2"));
}

// ------------------------------------------------------ append records

Relation AppendBase(int rows, int last) {
  Relation r("baskets", Schema({"BID", "Item"}));
  for (int i = 0; i < rows - 1; ++i) r.AddRow({Value(i), Value("item")});
  r.AddRow({Value(last), Value("last")});
  return r;
}

Relation AppendDelta() {
  Relation d("baskets", Schema({"BID", "Item"}));
  d.AddRow({Value(900), Value("new")});
  d.AddRow({Value(0), Value("item")});  // already in the base
  d.AddRow({Value(901), Value("new")});
  return d;
}

TEST(CatalogAppendTest, LogsTheDeltaAndReplaysTheMergedRelation) {
  MemVfs vfs;
  Relation base = AppendBase(500, 499);
  Result<Relation> merged = AppendRelation(base, AppendDelta());
  ASSERT_TRUE(merged.ok());
  Result<std::unique_ptr<Catalog>> cat = Catalog::Open(vfs, "cat");
  ASSERT_TRUE(cat.ok());
  ASSERT_TRUE((*cat)->PutRelation(base).ok());
  std::uint64_t bytes_before = (*cat)->stats().wal_bytes;
  std::uint64_t fsyncs_before = (*cat)->stats().fsyncs;
  ASSERT_TRUE((*cat)->AppendRows("baskets", AppendDelta()).ok());
  // One frame of about the delta's size, one fsync.
  EXPECT_LT((*cat)->stats().wal_bytes - bytes_before, 200u);
  EXPECT_EQ((*cat)->stats().fsyncs, fsyncs_before + 1);
  const Relation& now = (*cat)->state().db.Get("baskets");
  EXPECT_EQ(now.rows(), merged->rows());
  EXPECT_EQ(now.epoch(), 1u);
  EXPECT_EQ(now.base_rows(), 500u);
  ASSERT_TRUE((*cat)->AppendRows("baskets", AppendDelta()).ok());
  EXPECT_EQ((*cat)->state().db.Get("baskets").epoch(), 2u);
  std::string acked = StateBytes(**cat);

  vfs.Crash();
  Result<std::unique_ptr<Catalog>> reopened = Catalog::Open(vfs, "cat");
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(StateBytes(**reopened), acked);
  EXPECT_EQ((*reopened)->open_info().replayed_records, 3u);
  EXPECT_EQ((*reopened)->state().db.Get("baskets").epoch(), 2u);
}

TEST(CatalogAppendTest, RefusedAppendsLogNothing) {
  MemVfs vfs;
  Result<std::unique_ptr<Catalog>> cat = Catalog::Open(vfs, "cat");
  ASSERT_TRUE(cat.ok());
  ASSERT_TRUE((*cat)->PutRelation(AppendBase(3, 2)).ok());
  Result<std::string> wal = vfs.ReadFile("cat/catalog.wal");
  ASSERT_TRUE(wal.ok());
  Status missing = (*cat)->AppendRows("nope", AppendDelta());
  EXPECT_EQ(missing.code(), StatusCode::kFailedPrecondition);
  Relation wrong("baskets", Schema({"BID", "Other"}));
  wrong.AddRow({Value(1), Value("x")});
  Status mismatch = (*cat)->AppendRows("baskets", wrong);
  EXPECT_EQ(mismatch.code(), StatusCode::kInvalidArgument);
  Result<std::string> after = vfs.ReadFile("cat/catalog.wal");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(*after, *wal);
  EXPECT_TRUE((*cat)->Healthy().ok());
}

// Splices catalog `from`'s append frame (its last) after the frames of
// catalog `onto`, whose LSNs end one before it.
std::string SpliceAppendFrame(MemVfs& vfs, const std::string& onto,
                              const std::string& from) {
  Result<std::string> base = vfs.ReadFile(onto + "/catalog.wal");
  Result<std::string> donor = vfs.ReadFile(from + "/catalog.wal");
  EXPECT_TRUE(base.ok() && donor.ok());
  WalReadResult frames = ParseWal(*donor);
  EXPECT_FALSE(frames.payloads.empty());
  std::string spliced = *base;
  AppendFrame(spliced, frames.payloads.back());
  return spliced;
}

TEST(CatalogAppendTest, AppendOnAnotherBaseIsCorruptWalAndLeavesTheLog) {
  // The donor's append was logged against a 5-row base ending in BID 4.
  // Other bases: the same row count with another last row, and a
  // different row count with the same last row.
  for (const Relation& other : {AppendBase(5, 77), AppendBase(6, 4)}) {
    MemVfs vfs;
    {
      Result<std::unique_ptr<Catalog>> donor = Catalog::Open(vfs, "donor");
      ASSERT_TRUE(donor.ok());
      ASSERT_TRUE((*donor)->PutRelation(AppendBase(5, 4)).ok());
      ASSERT_TRUE((*donor)->AppendRows("baskets", AppendDelta()).ok());
      Result<std::unique_ptr<Catalog>> onto = Catalog::Open(vfs, "cat");
      ASSERT_TRUE(onto.ok());
      ASSERT_TRUE((*onto)->PutRelation(other).ok());
    }
    std::string spliced = SpliceAppendFrame(vfs, "cat", "donor");
    ASSERT_TRUE(AtomicWriteFile(vfs, "cat/catalog.wal", spliced).ok());

    Result<std::unique_ptr<Catalog>> reopened = Catalog::Open(vfs, "cat");
    ASSERT_FALSE(reopened.ok());
    EXPECT_EQ(reopened.status().code(), StatusCode::kCorruptWal);
    EXPECT_NE(reopened.status().message().find("LSN 2"), std::string::npos)
        << reopened.status().ToString();
    EXPECT_NE(reopened.status().message().find("baskets"), std::string::npos)
        << reopened.status().ToString();
    Result<std::string> after = vfs.ReadFile("cat/catalog.wal");
    ASSERT_TRUE(after.ok());
    EXPECT_EQ(*after, spliced);
  }
}

TEST(CatalogAppendTest, ParentWholeRelationAppendRecordReopensIdentically) {
  // Earlier builds logged LOAD ... APPEND as a whole-relation record of
  // the merged relation. Such a log reopens to the state an append
  // record builds.
  MemVfs vfs;
  Relation base = AppendBase(40, 39);
  Result<Relation> merged = AppendRelation(base, AppendDelta());
  ASSERT_TRUE(merged.ok());
  {
    Result<std::unique_ptr<Catalog>> parent = Catalog::Open(vfs, "parent");
    ASSERT_TRUE(parent.ok());
    ASSERT_TRUE((*parent)->PutRelation(base).ok());
    ASSERT_TRUE((*parent)->PutRelation(*merged).ok());
    Result<std::unique_ptr<Catalog>> child = Catalog::Open(vfs, "child");
    ASSERT_TRUE(child.ok());
    ASSERT_TRUE((*child)->PutRelation(base).ok());
    ASSERT_TRUE((*child)->AppendRows("baskets", AppendDelta()).ok());
  }
  Result<std::unique_ptr<Catalog>> parent = Catalog::Open(vfs, "parent");
  Result<std::unique_ptr<Catalog>> child = Catalog::Open(vfs, "child");
  ASSERT_TRUE(parent.ok() && child.ok());
  EXPECT_EQ(StateBytes(**parent), StateBytes(**child));
  // Appends continue on top of the parent's record.
  ASSERT_TRUE((*parent)->AppendRows("baskets", AppendDelta()).ok());
  EXPECT_EQ((*parent)->state().db.Get("baskets").rows(), merged->rows());
}

TEST(CatalogTest, GovernorAbortsSlowRecovery) {
  MemVfs vfs;
  {
    Result<std::unique_ptr<Catalog>> cat = Catalog::Open(vfs, "cat");
    ASSERT_TRUE(cat.ok());
    ASSERT_TRUE((*cat)->SetKnob("A", 1).ok());
  }
  QueryContext ctx;
  ctx.RequestCancel();
  Result<std::unique_ptr<Catalog>> reopened = Catalog::Open(vfs, "cat", &ctx);
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kCancelled);
}

}  // namespace
}  // namespace qf
