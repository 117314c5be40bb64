// Paged columnar relation files (storage/page.h) and their catalog
// integration: write/open round trips at several page sizes, per-page
// corruption detection, the QFSNAP02 paged-snapshot layout, orphan
// sweeps, crash-point recovery of a paged checkpoint, buffer-pool-backed
// opens, and the shell's SET BUFFER knob.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/resource.h"
#include "common/status.h"
#include "common/vfs.h"
#include "relational/relation.h"
#include "relational/tsv.h"
#include "shell/shell.h"
#include "storage/buffer_pool.h"
#include "storage/catalog.h"
#include "storage/page.h"

namespace qf {
namespace {

Relation BuildRelation(const std::string& name, int rows) {
  Relation r(name, Schema({"A", "B", "C"}));
  for (int i = 0; i < rows; ++i) {
    r.AddRow({Value(i), Value("item-" + std::to_string(i % 37)),
              Value(i * 0.5 - 10.0)});
  }
  return r;
}

void RewriteFile(Vfs& vfs, const std::string& path, const std::string& bytes) {
  Result<std::unique_ptr<WritableFile>> f = vfs.OpenTrunc(path);
  ASSERT_TRUE(f.ok()) << f.status().ToString();
  ASSERT_TRUE((*f)->Append(bytes).ok());
  ASSERT_TRUE((*f)->Close().ok());
}

std::string MustRun(Shell& shell, const std::string& stmt) {
  Result<std::string> out = shell.Execute(stmt);
  EXPECT_TRUE(out.ok()) << out.status().ToString() << " for: " << stmt;
  return out.ok() ? *out : std::string();
}

// RUN output minus its first line (which embeds wall-clock time).
std::string ResultBody(const std::string& out) {
  std::size_t nl = out.find('\n');
  return nl == std::string::npos ? out : out.substr(nl + 1);
}

// ------------------------------------------------------ page round trips

TEST(PagedRelationTest, RoundTripSinglePage) {
  MemVfs vfs;
  Relation original = BuildRelation("small", 10);
  Result<PagedWriteInfo> info = WritePagedRelation(vfs, "r.qfp", original);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info->pages, 1u);

  Result<std::unique_ptr<DiskRelation>> disk = DiskRelation::Open(vfs, "r.qfp");
  ASSERT_TRUE(disk.ok()) << disk.status().ToString();
  EXPECT_EQ((*disk)->name(), "small");
  EXPECT_EQ((*disk)->row_count(), 10u);
  EXPECT_EQ((*disk)->schema().columns(),
            (std::vector<std::string>{"A", "B", "C"}));
  Result<Relation> back = (*disk)->ReadAll();
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->rows(), original.rows());
  Result<std::vector<Tuple>> last = (*disk)->ReadLastRow();
  ASSERT_TRUE(last.ok()) << last.status().ToString();
  EXPECT_EQ(*last, std::vector<Tuple>{original.rows().back()});
}

TEST(PagedRelationTest, RoundTripManyPagesPreservesRowOrder) {
  MemVfs vfs;
  Relation original = BuildRelation("big", 1000);
  // Tiny page target so the relation spans many pages.
  Result<PagedWriteInfo> info =
      WritePagedRelation(vfs, "r.qfp", original, nullptr, /*page_bytes=*/512);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_GT(info->pages, 10u);

  Result<std::unique_ptr<DiskRelation>> disk = DiskRelation::Open(vfs, "r.qfp");
  ASSERT_TRUE(disk.ok()) << disk.status().ToString();
  EXPECT_EQ((*disk)->page_count(), info->pages);
  EXPECT_EQ((*disk)->row_count(), 1000u);
  Result<Relation> back = (*disk)->ReadAll();
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->rows(), original.rows());
  // The last row comes from the last page alone.
  Result<std::vector<Tuple>> last = (*disk)->ReadLastRow();
  ASSERT_TRUE(last.ok()) << last.status().ToString();
  EXPECT_EQ(*last, std::vector<Tuple>{original.rows().back()});

  // Scan streams the same rows in the same order.
  std::vector<Tuple> scanned;
  Status s = (*disk)->Scan([&](std::span<const Value> row) {
    scanned.emplace_back(row.begin(), row.end());
    return Status::Ok();
  });
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(scanned, original.rows());
}

TEST(PagedRelationTest, RoundTripEmptyRelation) {
  MemVfs vfs;
  Relation original("empty", Schema({"X", "Y"}));
  Result<PagedWriteInfo> info = WritePagedRelation(vfs, "r.qfp", original);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  Result<std::unique_ptr<DiskRelation>> disk = DiskRelation::Open(vfs, "r.qfp");
  ASSERT_TRUE(disk.ok()) << disk.status().ToString();
  EXPECT_EQ((*disk)->row_count(), 0u);
  Result<Relation> back = (*disk)->ReadAll();
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->size(), 0u);
  EXPECT_EQ(back->schema().columns(), (std::vector<std::string>{"X", "Y"}));
  Result<std::vector<Tuple>> last = (*disk)->ReadLastRow();
  ASSERT_TRUE(last.ok()) << last.status().ToString();
  EXPECT_TRUE(last->empty());
}

TEST(PagedRelationTest, CorruptPageByteIsTypedIoError) {
  MemVfs vfs;
  ASSERT_TRUE(
      WritePagedRelation(vfs, "r.qfp", BuildRelation("big", 400), nullptr, 512)
          .ok());
  Result<std::string> bytes = vfs.ReadFile("r.qfp");
  ASSERT_TRUE(bytes.ok());
  // Flip one byte inside the first page's payload. The footer and
  // directory stay intact, so Open succeeds and the damage surfaces as a
  // typed IO_ERROR on the read of that page, never as wrong rows.
  std::string corrupt = *bytes;
  corrupt[kPageMagicLen + 12] ^= 0x40;
  RewriteFile(vfs, "r.qfp", corrupt);

  Result<std::unique_ptr<DiskRelation>> disk = DiskRelation::Open(vfs, "r.qfp");
  ASSERT_TRUE(disk.ok()) << disk.status().ToString();
  Result<std::shared_ptr<const RelationPage>> page = (*disk)->ReadPage(0);
  EXPECT_FALSE(page.ok());
  EXPECT_EQ(page.status().code(), StatusCode::kIoError)
      << page.status().ToString();
  Result<Relation> all = (*disk)->ReadAll();
  EXPECT_FALSE(all.ok());

  // The same flip in a one-page file fails ReadLastRow the same way.
  ASSERT_TRUE(
      WritePagedRelation(vfs, "one.qfp", BuildRelation("one", 10)).ok());
  Result<std::string> one = vfs.ReadFile("one.qfp");
  ASSERT_TRUE(one.ok());
  std::string flipped = *one;
  flipped[kPageMagicLen + 12] ^= 0x40;
  RewriteFile(vfs, "one.qfp", flipped);
  Result<std::unique_ptr<DiskRelation>> one_disk =
      DiskRelation::Open(vfs, "one.qfp");
  ASSERT_TRUE(one_disk.ok()) << one_disk.status().ToString();
  EXPECT_EQ((*one_disk)->ReadLastRow().status().code(), StatusCode::kIoError);
}

TEST(PagedRelationTest, TruncationsFailCleanlyAtOpen) {
  MemVfs vfs;
  ASSERT_TRUE(
      WritePagedRelation(vfs, "r.qfp", BuildRelation("big", 200), nullptr, 512)
          .ok());
  Result<std::string> bytes = vfs.ReadFile("r.qfp");
  ASSERT_TRUE(bytes.ok());
  for (std::size_t len : {std::size_t{0}, std::size_t{4}, kPageMagicLen,
                          bytes->size() / 2, bytes->size() - 1}) {
    RewriteFile(vfs, "t.qfp", bytes->substr(0, len));
    Result<std::unique_ptr<DiskRelation>> disk =
        DiskRelation::Open(vfs, "t.qfp");
    EXPECT_FALSE(disk.ok()) << "length " << len;
  }
}

TEST(PagedRelationTest, BufferPoolBackedReadsHitOnRepeat) {
  MemVfs vfs;
  ASSERT_TRUE(
      WritePagedRelation(vfs, "r.qfp", BuildRelation("big", 500), nullptr, 512)
          .ok());
  BufferPool pool(1 << 20);
  Result<std::unique_ptr<DiskRelation>> disk =
      DiskRelation::Open(vfs, "r.qfp", &pool);
  ASSERT_TRUE(disk.ok());
  Result<Relation> first = (*disk)->ReadAll();
  ASSERT_TRUE(first.ok());
  BufferPoolStats after_first = pool.stats();
  EXPECT_EQ(after_first.misses, (*disk)->page_count());
  Result<Relation> second = (*disk)->ReadAll();
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->rows(), second->rows());
  BufferPoolStats after_second = pool.stats();
  EXPECT_EQ(after_second.misses, after_first.misses);  // all hits
  EXPECT_EQ(after_second.hits, after_first.hits + (*disk)->page_count());
}

// A relation of `arity` columns mixing ints, doubles and strings, the
// empty string included, so every value kind crosses page boundaries.
Relation MixedRelation(const std::string& name, std::size_t arity, int rows) {
  std::vector<std::string> cols;
  for (std::size_t c = 0; c < arity; ++c) {
    cols.push_back("C" + std::to_string(c));
  }
  Relation r(name, Schema(cols));
  for (int i = 0; i < rows; ++i) {
    Tuple t;
    for (std::size_t c = 0; c < arity; ++c) {
      switch ((i + static_cast<int>(c)) % 4) {
        case 0:
          t.emplace_back(static_cast<std::int64_t>(i) * 7919 - 5000);
          break;
        case 1:
          t.emplace_back(i * 0.25 - 3.5);
          break;
        case 2:
          t.emplace_back(std::string_view(""));
          break;
        default:
          t.emplace_back("s" + std::to_string(i % 53));
          break;
      }
    }
    r.Add(std::move(t));
  }
  return r;
}

// Every reader of a paged file returns the same rows in the same order:
// ReadAll, Scan, ReadPage page by page, and ReadLastRow for the last row.
void ExpectReadersAgree(const DiskRelation& disk, const Relation& original) {
  Result<Relation> all = disk.ReadAll();
  ASSERT_TRUE(all.ok()) << all.status().ToString();
  EXPECT_EQ(all->name(), original.name());
  EXPECT_EQ(all->schema().columns(), original.schema().columns());
  EXPECT_EQ(all->rows(), original.rows());

  std::vector<Tuple> scanned;
  ASSERT_TRUE(disk.Scan([&](std::span<const Value> row) {
                    scanned.emplace_back(row.begin(), row.end());
                    return Status::Ok();
                  }).ok());
  EXPECT_EQ(scanned, original.rows());

  std::vector<Tuple> paged;
  for (std::size_t p = 0; p < disk.page_count(); ++p) {
    Result<std::shared_ptr<const RelationPage>> page = disk.ReadPage(p);
    ASSERT_TRUE(page.ok()) << page.status().ToString();
    EXPECT_EQ((*page)->arity, original.arity());
    EXPECT_EQ((*page)->bytes,
              (*page)->n_rows * ApproxTupleBytes(original.arity()));
    for (std::size_t r = 0; r < (*page)->n_rows; ++r) {
      std::span<const Value> row = (*page)->row(r);
      paged.emplace_back(row.begin(), row.end());
    }
  }
  EXPECT_EQ(paged, original.rows());

  Result<std::vector<Tuple>> last = disk.ReadLastRow();
  ASSERT_TRUE(last.ok()) << last.status().ToString();
  if (original.size() == 0) {
    EXPECT_TRUE(last->empty());
  } else {
    EXPECT_EQ(*last, std::vector<Tuple>{original.rows().back()});
  }
}

TEST(PagedRelationTest, MixedKindsRoundTripAtArityOneAndThree) {
  for (std::size_t arity : {std::size_t{1}, std::size_t{3}}) {
    for (int rows : {0, 1, 997}) {
      SCOPED_TRACE("arity " + std::to_string(arity) + " rows " +
                   std::to_string(rows));
      MemVfs vfs;
      Relation original = MixedRelation("mixed", arity, rows);
      Result<PagedWriteInfo> info =
          WritePagedRelation(vfs, "r.qfp", original, nullptr, 700);
      ASSERT_TRUE(info.ok()) << info.status().ToString();
      if (rows > 100) {
        EXPECT_GT(info->pages, 5u);
      }
      Result<std::unique_ptr<DiskRelation>> disk =
          DiskRelation::Open(vfs, "r.qfp");
      ASSERT_TRUE(disk.ok()) << disk.status().ToString();
      ExpectReadersAgree(**disk, original);
      // Through a pool small enough to evict, the readers still agree.
      BufferPool pool(2048);
      Result<std::unique_ptr<DiskRelation>> pooled =
          DiskRelation::Open(vfs, "r.qfp", &pool);
      ASSERT_TRUE(pooled.ok()) << pooled.status().ToString();
      ExpectReadersAgree(**pooled, original);
    }
  }
}

TEST(PagedRelationTest, FreshReadAllThroughSmallPoolCountsEveryPage) {
  // A fixed file read once through a pool a sixth of its decoded size:
  // every page misses once, and the pool evicts all but what fits. The
  // counts are pinned so a change to page decoding cannot move pool
  // behaviour (the charge per page is n_rows * ApproxTupleBytes(arity)).
  MemVfs vfs;
  Relation original = BuildRelation("big", 3000);
  Result<PagedWriteInfo> info =
      WritePagedRelation(vfs, "r.qfp", original, nullptr, 4096);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  BufferPool pool(3000 * ApproxTupleBytes(3) / 6);
  Result<std::unique_ptr<DiskRelation>> disk =
      DiskRelation::Open(vfs, "r.qfp", &pool);
  ASSERT_TRUE(disk.ok()) << disk.status().ToString();
  Result<Relation> all = (*disk)->ReadAll();
  ASSERT_TRUE(all.ok()) << all.status().ToString();
  EXPECT_EQ(all->rows(), original.rows());
  BufferPoolStats stats = pool.stats();
  EXPECT_EQ((*disk)->page_count(), 22u);
  EXPECT_EQ(stats.misses, 22u);
  EXPECT_EQ(stats.evictions, 19u);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.resident_bytes, 27216u);
}

// ------------------------------------------------------ catalog paging

CatalogOptions PageEverything(BufferPool* pool = nullptr) {
  CatalogOptions o;
  o.paged_threshold_bytes = 1;  // every named relation pages out
  o.pool = pool;
  return o;
}

TEST(PagedCatalogTest, CheckpointWritesSnap02AndReopenRestoresState) {
  MemVfs vfs;
  std::string oracle;
  {
    Result<std::unique_ptr<Catalog>> cat =
        Catalog::Open(vfs, "db", nullptr, PageEverything());
    ASSERT_TRUE(cat.ok()) << cat.status().ToString();
    ASSERT_TRUE((*cat)->PutRelation(BuildRelation("big", 600)).ok());
    ASSERT_TRUE((*cat)->PutRelation(BuildRelation("other", 50)).ok());
    ASSERT_TRUE((*cat)->Checkpoint().ok());
    Result<std::string> enc = EncodeCatalogState((*cat)->state());
    ASSERT_TRUE(enc.ok());
    oracle = *enc;
  }
  Result<std::string> snap = vfs.ReadFile("db/catalog.snap");
  ASSERT_TRUE(snap.ok());
  EXPECT_EQ(snap->substr(0, 8), "QFSNAP02");
  Result<std::vector<std::string>> pages = vfs.ListDir("db/pages");
  ASSERT_TRUE(pages.ok());
  EXPECT_EQ(pages->size(), 2u);

  Result<std::unique_ptr<Catalog>> back =
      Catalog::Open(vfs, "db", nullptr, PageEverything());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ((*back)->open_info().paged_relations, 2u);
  Result<std::string> enc = EncodeCatalogState((*back)->state());
  ASSERT_TRUE(enc.ok());
  EXPECT_EQ(*enc, oracle);
}

TEST(PagedCatalogTest, SmallRelationsKeepInlineSnap01) {
  MemVfs vfs;
  Result<std::unique_ptr<Catalog>> cat = Catalog::Open(vfs, "db");
  ASSERT_TRUE(cat.ok());
  ASSERT_TRUE((*cat)->PutRelation(BuildRelation("small", 20)).ok());
  ASSERT_TRUE((*cat)->Checkpoint().ok());
  Result<std::string> snap = vfs.ReadFile("db/catalog.snap");
  ASSERT_TRUE(snap.ok());
  EXPECT_EQ(snap->substr(0, 8), "QFSNAP01");
}

TEST(PagedCatalogTest, OpenSweepsOrphanPageAndSpillFiles) {
  MemVfs vfs;
  {
    Result<std::unique_ptr<Catalog>> cat =
        Catalog::Open(vfs, "db", nullptr, PageEverything());
    ASSERT_TRUE(cat.ok());
    ASSERT_TRUE((*cat)->PutRelation(BuildRelation("big", 300)).ok());
    ASSERT_TRUE((*cat)->Checkpoint().ok());
  }
  Result<std::vector<std::string>> live = vfs.ListDir("db/pages");
  ASSERT_TRUE(live.ok());
  ASSERT_EQ(live->size(), 1u);
  std::string live_name = (*live)[0];
  // Plant a stale page file and an orphaned spill file (crash leftovers).
  RewriteFile(vfs, "db/pages/stale.0.qfp", "junk");
  ASSERT_TRUE(vfs.CreateDirs("db/spill").ok());
  RewriteFile(vfs, "db/spill/qfspill-7", "junk");

  Result<std::unique_ptr<Catalog>> back =
      Catalog::Open(vfs, "db", nullptr, PageEverything());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_GE((*back)->open_info().orphans_removed, 2u);
  EXPECT_FALSE(vfs.Exists("db/pages/stale.0.qfp"));
  EXPECT_FALSE(vfs.Exists("db/spill/qfspill-7"));
  EXPECT_TRUE(vfs.Exists("db/pages/" + live_name));
}

// Page files under db/pages, sorted.
std::vector<std::string> PageFiles(Vfs& vfs) {
  Result<std::vector<std::string>> names = vfs.ListDir("db/pages");
  EXPECT_TRUE(names.ok()) << names.status().ToString();
  std::vector<std::string> out = names.ok() ? *names : std::vector<std::string>();
  std::sort(out.begin(), out.end());
  return out;
}

TEST(PagedCatalogTest, CrashAtEveryCheckpointOpRecoversExactState) {
  // Fault-free dry run to learn how many mutating ops a paged checkpoint
  // performs, then crash at each one in turn. After every crash the
  // durable view must recover to exactly the acknowledged state. The
  // second sweep crashes a *reusing* checkpoint: `keep` is unchanged
  // since the first checkpoint, so its sidecar is named again, and no
  // crash point may lose or sweep it. The third crashes the same
  // checkpoint run by the catalog of an adopting re-OPEN, whose version
  // records came from the replaced catalog's.
  for (int mode : {0, 1, 2}) {
    const bool reusing = mode > 0;
    // Everything up to the checkpoint under test; returns the sidecar a
    // reusing checkpoint keeps ("" for the first).
    auto prepare = [&](std::unique_ptr<Catalog>& cat, Vfs& vfs) -> std::string {
      EXPECT_TRUE(cat->PutRelation(BuildRelation("big", 300)).ok());
      if (!reusing) return "";
      EXPECT_TRUE(cat->PutRelation(BuildRelation("keep", 200)).ok());
      EXPECT_TRUE(cat->Checkpoint().ok());
      EXPECT_TRUE(cat->AppendRows("big", BuildRelation("big", 310)).ok());
      if (mode == 2) {
        Result<std::unique_ptr<Catalog>> again =
            Catalog::Open(vfs, "db", nullptr, PageEverything(), cat.get());
        EXPECT_TRUE(again.ok()) << again.status().ToString();
        if (!again.ok()) return "";
        EXPECT_EQ((*again)->open_info().adopted_relations, 2u);
        EXPECT_EQ((*again)->open_info().appends_adopted, 1u);
        cat = std::move(*again);
      }
      for (const std::string& f : PageFiles(vfs)) {
        if (f.rfind("keep.", 0) == 0) return f;
      }
      return "";
    };
    std::uint64_t checkpoint_ops = 0;
    {
      MemVfs base;
      FaultVfs fault(base);
      Result<std::unique_ptr<Catalog>> cat =
          Catalog::Open(fault, "db", nullptr, PageEverything());
      ASSERT_TRUE(cat.ok());
      prepare(*cat, fault);
      std::uint64_t before = fault.op_count();
      ASSERT_TRUE((*cat)->Checkpoint().ok());
      checkpoint_ops = fault.op_count() - before;
      EXPECT_EQ((*cat)->stats().sidecars_kept, reusing ? 1u : 0u);
    }
    ASSERT_GT(checkpoint_ops, 0u);

    for (std::uint64_t k = 1; k <= checkpoint_ops; ++k) {
      MemVfs base;
      FaultVfs fault(base);
      std::string oracle;
      std::string kept;
      {
        Result<std::unique_ptr<Catalog>> cat =
            Catalog::Open(fault, "db", nullptr, PageEverything());
        ASSERT_TRUE(cat.ok());
        kept = prepare(*cat, fault);
        ASSERT_EQ(kept.empty(), !reusing);
        Result<std::string> enc = EncodeCatalogState((*cat)->state());
        ASSERT_TRUE(enc.ok());
        oracle = *enc;
        FaultPlan plan;
        plan.crash_at_op = fault.op_count() + k;
        fault.set_plan(plan);
        (void)(*cat)->Checkpoint();  // dies somewhere inside
      }
      base.Crash();
      Result<std::unique_ptr<Catalog>> back =
          Catalog::Open(base, "db", nullptr, PageEverything());
      ASSERT_TRUE(back.ok()) << "crash op " << k << ": "
                             << back.status().ToString();
      Result<std::string> enc = EncodeCatalogState((*back)->state());
      ASSERT_TRUE(enc.ok());
      EXPECT_EQ(*enc, oracle) << "crash op " << k;
      if (reusing) {
        EXPECT_TRUE(base.Exists("db/pages/" + kept)) << "crash op " << k;
      }
    }
  }
}

TEST(PagedCatalogTest, CheckpointKeepsSidecarsOfUnchangedRelations) {
  MemVfs vfs;
  std::string oracle;
  std::vector<std::string> first;
  {
    Result<std::unique_ptr<Catalog>> cat =
        Catalog::Open(vfs, "db", nullptr, PageEverything());
    ASSERT_TRUE(cat.ok()) << cat.status().ToString();
    ASSERT_TRUE((*cat)->PutRelation(BuildRelation("big", 600)).ok());
    ASSERT_TRUE((*cat)->PutRelation(BuildRelation("other", 50)).ok());
    ASSERT_TRUE((*cat)->Checkpoint().ok());
    EXPECT_EQ((*cat)->stats().sidecars_written, 2u);
    first = PageFiles(vfs);
    ASSERT_EQ(first.size(), 2u);
    ASSERT_TRUE((*cat)->AppendRows("big", BuildRelation("big", 610)).ok());
    Result<std::string> enc = EncodeCatalogState((*cat)->state());
    ASSERT_TRUE(enc.ok());
    oracle = *enc;
    const std::uint64_t fsyncs = (*cat)->stats().fsyncs;
    ASSERT_TRUE((*cat)->Checkpoint().ok());
    EXPECT_EQ((*cat)->stats().sidecars_written, 3u);
    EXPECT_EQ((*cat)->stats().sidecars_kept, 1u);
    // One sidecar and the pages directory, then two each for the atomic
    // snapshot rotation and WAL reset.
    EXPECT_EQ((*cat)->stats().fsyncs - fsyncs, 6u);
    // A checkpoint with nothing changed writes no sidecar at all.
    ASSERT_TRUE((*cat)->Checkpoint().ok());
    EXPECT_EQ((*cat)->stats().sidecars_written, 3u);
    EXPECT_EQ((*cat)->stats().sidecars_kept, 3u);
  }
  std::vector<std::string> second = PageFiles(vfs);
  ASSERT_EQ(second.size(), 2u);
  EXPECT_NE(second[0], first[0]);  // big.<lsn>.qfp was rewritten
  EXPECT_EQ(second[1], first[1]);  // other's file is named verbatim

  Result<std::unique_ptr<Catalog>> back =
      Catalog::Open(vfs, "db", nullptr, PageEverything());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ((*back)->open_info().paged_relations, 2u);
  EXPECT_EQ((*back)->open_info().orphans_removed, 0u);
  Result<std::string> enc = EncodeCatalogState((*back)->state());
  ASSERT_TRUE(enc.ok());
  EXPECT_EQ(*enc, oracle);
}

TEST(PagedCatalogTest, IdentityNotContentDecidesWhatIsKept) {
  MemVfs vfs;
  Result<std::unique_ptr<Catalog>> cat =
      Catalog::Open(vfs, "db", nullptr, PageEverything());
  ASSERT_TRUE(cat.ok()) << cat.status().ToString();
  ASSERT_TRUE((*cat)->PutRelation(BuildRelation("big", 300)).ok());
  ASSERT_TRUE((*cat)->Checkpoint().ok());
  std::vector<std::string> first = PageFiles(vfs);
  // The same rows under a new handle: a new version, so a new sidecar.
  ASSERT_TRUE((*cat)->PutRelation(BuildRelation("big", 300)).ok());
  ASSERT_TRUE((*cat)->Checkpoint().ok());
  EXPECT_EQ((*cat)->stats().sidecars_written, 2u);
  EXPECT_EQ((*cat)->stats().sidecars_kept, 0u);
  std::vector<std::string> second = PageFiles(vfs);
  ASSERT_EQ(second.size(), 1u);
  EXPECT_NE(second, first);
}

TEST(PagedCatalogTest, OpenAdoptsOnlyWhatThePreviousCatalogRecorded) {
  MemVfs vfs;
  Result<std::unique_ptr<Catalog>> cat =
      Catalog::Open(vfs, "db", nullptr, PageEverything());
  ASSERT_TRUE(cat.ok()) << cat.status().ToString();
  ASSERT_TRUE((*cat)->PutRelation(BuildRelation("big", 300)).ok());
  ASSERT_TRUE((*cat)->PutRelation(BuildRelation("other", 40)).ok());
  ASSERT_TRUE((*cat)->PutRelation(BuildRelation("redone", 30)).ok());
  ASSERT_TRUE((*cat)->Checkpoint().ok());
  ASSERT_TRUE((*cat)->AppendRows("big", BuildRelation("big", 305)).ok());
  ASSERT_TRUE((*cat)->PutRelation(BuildRelation("redone", 20)).ok());

  // `other` is held at the version its sidecar holds, and `big` at its
  // sidecar plus the append the WAL replays onto it: both are adopted.
  // The put dropped `redone`'s record, so it comes from the WAL.
  Result<std::unique_ptr<Catalog>> again =
      Catalog::Open(vfs, "db", nullptr, PageEverything(), cat->get());
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ((*again)->open_info().paged_relations, 3u);
  EXPECT_EQ((*again)->open_info().adopted_relations, 2u);
  EXPECT_EQ((*again)->open_info().appends_adopted, 1u);
  EXPECT_EQ((*again)->state().db.GetShared("other"),
            (*cat)->state().db.GetShared("other"));
  EXPECT_EQ((*again)->state().db.GetShared("big"),
            (*cat)->state().db.GetShared("big"));
  EXPECT_NE((*again)->state().db.GetShared("redone"),
            (*cat)->state().db.GetShared("redone"));
  Result<std::string> want = EncodeCatalogState((*cat)->state());
  Result<std::string> got = EncodeCatalogState((*again)->state());
  ASSERT_TRUE(want.ok() && got.ok());
  EXPECT_EQ(*got, *want);

  // Another directory's catalog is never adopted from.
  ASSERT_TRUE(vfs.CreateDirs("copy/pages").ok());
  for (const std::string& f : {std::string("catalog.snap"),
                               std::string("catalog.wal")}) {
    Result<std::string> bytes = vfs.ReadFile("db/" + f);
    ASSERT_TRUE(bytes.ok());
    RewriteFile(vfs, "copy/" + f, *bytes);
  }
  for (const std::string& f : PageFiles(vfs)) {
    Result<std::string> bytes = vfs.ReadFile("db/pages/" + f);
    ASSERT_TRUE(bytes.ok());
    RewriteFile(vfs, "copy/pages/" + f, *bytes);
  }
  Result<std::unique_ptr<Catalog>> copy =
      Catalog::Open(vfs, "copy", nullptr, PageEverything(), again->get());
  ASSERT_TRUE(copy.ok()) << copy.status().ToString();
  EXPECT_EQ((*copy)->open_info().adopted_relations, 0u);
}

// The history both tests below replay in `dir`: `base` paged by a
// checkpoint, then `delta` appended to it.
std::unique_ptr<Catalog> AppendedCatalog(Vfs& vfs, const std::string& dir,
                                         const Relation& base,
                                         const Relation& delta) {
  Result<std::unique_ptr<Catalog>> cat =
      Catalog::Open(vfs, dir, nullptr, PageEverything());
  EXPECT_TRUE(cat.ok()) << cat.status().ToString();
  if (!cat.ok()) return nullptr;
  EXPECT_TRUE((*cat)->PutRelation(base).ok());
  EXPECT_TRUE((*cat)->Checkpoint().ok());
  EXPECT_TRUE((*cat)->AppendRows(base.name(), delta).ok());
  return std::move(*cat);
}

void CopyFile(Vfs& vfs, const std::string& from, const std::string& to) {
  Result<std::string> bytes = vfs.ReadFile(from);
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
  RewriteFile(vfs, to, *bytes);
}

TEST(PagedCatalogTest, RewrittenAppendRecordIsDecodedNotAdopted) {
  MemVfs vfs;
  std::unique_ptr<Catalog> cat = AppendedCatalog(
      vfs, "db", BuildRelation("big", 300), BuildRelation("big", 305));
  ASSERT_NE(cat, nullptr);
  // The same LSNs with another delta: the frame's CRC is valid, but the
  // record is not the one the held handle was built from.
  std::unique_ptr<Catalog> alt = AppendedCatalog(
      vfs, "alt", BuildRelation("big", 300), BuildRelation("big", 303));
  ASSERT_NE(alt, nullptr);
  CopyFile(vfs, "alt/catalog.wal", "db/catalog.wal");

  Result<std::unique_ptr<Catalog>> again =
      Catalog::Open(vfs, "db", nullptr, PageEverything(), cat.get());
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ((*again)->open_info().paged_relations, 1u);
  EXPECT_EQ((*again)->open_info().adopted_relations, 0u);
  EXPECT_EQ((*again)->open_info().appends_adopted, 0u);
  EXPECT_EQ((*again)->state().db.Get("big").size(), 303u);
  Result<std::unique_ptr<Catalog>> fresh =
      Catalog::Open(vfs, "db", nullptr, PageEverything());
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  Result<std::string> want = EncodeCatalogState((*fresh)->state());
  Result<std::string> got = EncodeCatalogState((*again)->state());
  ASSERT_TRUE(want.ok() && got.ok());
  EXPECT_EQ(*got, *want);
}

TEST(PagedCatalogTest, ChainThatStopsShortIsNotAdopted) {
  MemVfs vfs;
  std::unique_ptr<Catalog> cat = AppendedCatalog(
      vfs, "db", BuildRelation("big", 300), BuildRelation("big", 305));
  ASSERT_NE(cat, nullptr);
  ASSERT_TRUE(cat->AppendRows("big", BuildRelation("big", 310)).ok());
  // A torn tail drops the second append: the held handle is a version
  // replay does not reach.
  Result<std::string> wal = vfs.ReadFile("db/catalog.wal");
  ASSERT_TRUE(wal.ok());
  RewriteFile(vfs, "db/catalog.wal", wal->substr(0, wal->size() - 1));

  Result<std::unique_ptr<Catalog>> again =
      Catalog::Open(vfs, "db", nullptr, PageEverything(), cat.get());
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ((*again)->open_info().adopted_relations, 0u);
  EXPECT_GT((*again)->open_info().truncated_bytes, 0u);
  EXPECT_EQ((*again)->state().db.Get("big").size(), 305u);
}

TEST(PagedCatalogTest, SwappedSidecarFailsAdoptingOpenLikeAFreshOpen) {
  MemVfs vfs;
  std::unique_ptr<Catalog> cat = AppendedCatalog(
      vfs, "db", BuildRelation("big", 300), BuildRelation("big", 305));
  ASSERT_NE(cat, nullptr);
  // Another version of `big` with the same row count, name and file
  // name: the footer and stub checks pass, the append's base check not.
  Relation other("big", Schema({"A", "B", "C"}));
  for (int i = 1; i <= 300; ++i) {
    other.AddRow({Value(i), Value("swapped"), Value(0.5)});
  }
  std::unique_ptr<Catalog> alt =
      AppendedCatalog(vfs, "alt", other, BuildRelation("big", 305));
  ASSERT_NE(alt, nullptr);
  const std::vector<std::string> files = PageFiles(vfs);
  ASSERT_EQ(files.size(), 1u);
  CopyFile(vfs, "alt/pages/" + files[0], "db/pages/" + files[0]);

  Result<std::unique_ptr<Catalog>> again =
      Catalog::Open(vfs, "db", nullptr, PageEverything(), cat.get());
  Result<std::unique_ptr<Catalog>> fresh =
      Catalog::Open(vfs, "db", nullptr, PageEverything());
  ASSERT_FALSE(again.ok());
  ASSERT_FALSE(fresh.ok());
  EXPECT_EQ(again.status().code(), StatusCode::kCorruptWal)
      << again.status().ToString();
  EXPECT_EQ(again.status().ToString(), fresh.status().ToString());
}

TEST(PagedCatalogTest, ReopenThroughBufferPoolPopulatesCache) {
  MemVfs vfs;
  {
    Result<std::unique_ptr<Catalog>> cat =
        Catalog::Open(vfs, "db", nullptr, PageEverything());
    ASSERT_TRUE(cat.ok());
    ASSERT_TRUE((*cat)->PutRelation(BuildRelation("big", 600)).ok());
    ASSERT_TRUE((*cat)->Checkpoint().ok());
  }
  BufferPool pool(1 << 20);
  Result<std::unique_ptr<Catalog>> back =
      Catalog::Open(vfs, "db", nullptr, PageEverything(&pool));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_GT(pool.stats().misses, 0u);
  EXPECT_EQ((*back)->state().db.Get("big").rows(),
            BuildRelation("big", 600).rows());
}

// ------------------------------------------------------ shell knob

TEST(PagedShellTest, SetBufferKnobPersistsAcrossReopen) {
  MemVfs vfs;
  {
    Shell shell;
    shell.set_vfs(&vfs);
    MustRun(shell, "OPEN db");
    EXPECT_NE(MustRun(shell, "SET BUFFER 16").find("16 MB"),
              std::string::npos);
    EXPECT_EQ(shell.buffer_capacity_bytes(), 16ull * 1024 * 1024);
  }
  Shell again;
  again.set_vfs(&vfs);
  MustRun(again, "OPEN db");
  EXPECT_EQ(again.buffer_capacity_bytes(), 16ull * 1024 * 1024);
  ASSERT_NE(again.buffer_pool(), nullptr);
  EXPECT_EQ(again.buffer_pool()->stats().capacity_bytes,
            16ull * 1024 * 1024);
  // Bad usage is rejected.
  EXPECT_FALSE(again.Execute("SET BUFFER lots").ok());
}

TEST(PagedShellTest, LargeRelationSurvivesShellCheckpointReopen) {
  MemVfs vfs;
  std::string before;
  {
    Shell shell;
    shell.set_vfs(&vfs);
    MustRun(shell, "OPEN db");
    // Big enough that rows * ApproxTupleBytes clears the default paged
    // threshold (256 KiB), so the checkpoint writes a page sidecar.
    MustRun(shell,
            "GEN BASKETS baskets n_baskets=3000 n_items=40 avg_size=5 "
            "theta=0.8 locality=0.5 topics=4 seed=7");
    MustRun(shell,
            "FLOCK pairs QUERY answer(B) :- baskets(B,$1) AND baskets(B,$2) "
            "AND $1 < $2 FILTER COUNT >= 40");
    before = ResultBody(MustRun(shell, "RUN pairs LIMIT 10000"));
    MustRun(shell, "CHECKPOINT");
  }
  Shell again;
  again.set_vfs(&vfs);
  std::string opened = MustRun(again, "OPEN db");
  EXPECT_NE(opened.find("paged: 1 relations"), std::string::npos) << opened;
  ASSERT_NE(again.buffer_pool(), nullptr);
  EXPECT_GT(again.buffer_pool()->stats().misses, 0u);
  EXPECT_EQ(ResultBody(MustRun(again, "RUN pairs LIMIT 10000")), before);
}

// GEN statement for a basket relation that clears the default paged
// threshold (256 KiB estimated), so CHECKPOINT gives it a sidecar.
std::string GenBig(const std::string& name, int seed, int baskets = 3000) {
  return "GEN BASKETS " + name + " n_baskets=" + std::to_string(baskets) +
         " n_items=40 avg_size=5 theta=0.8 locality=0.5 topics=4 seed=" +
         std::to_string(seed);
}

// Appends one new basket row to relation `name` through a TSV file.
void AppendOneRow(Shell& shell, MemVfs& vfs, const std::string& name,
                  int basket = 1000000) {
  Relation delta(name, Schema({"BID", "Item"}));
  delta.AddRow({Value(basket), Value("item_new")});
  ASSERT_TRUE(StoreTsv(delta, "delta.tsv", &vfs).ok());
  MustRun(shell, "LOAD " + name + " APPEND FROM delta.tsv");
}

// The "stats" node's out= count: relations the refresh restatted.
std::size_t Restatted(const std::string& explain) {
  std::size_t at = explain.find("\n  stats ");
  if (at == std::string::npos) {
    ADD_FAILURE() << "no stats node in:\n" << explain;
    return 0;
  }
  return std::stoul(explain.substr(explain.find(" out=", at) + 5));
}

std::string EncodedState(const Shell& shell) {
  Result<std::string> enc = EncodeCatalogState(shell.catalog()->state());
  EXPECT_TRUE(enc.ok()) << enc.status().ToString();
  return enc.ok() ? *enc : std::string();
}

TEST(PagedShellTest, ReopenAdoptsHeldRelationsAndMatchesAFreshOpen) {
  MemVfs vfs;
  Shell shell;
  shell.set_vfs(&vfs);
  MustRun(shell, "OPEN db");
  MustRun(shell, GenBig("a", 7));
  MustRun(shell, GenBig("b", 8));
  MustRun(shell,
          "FLOCK pairs QUERY answer(B) :- a(B,$1) AND b(B,$2) "
          "AND $1 < $2 FILTER COUNT >= 40");
  MustRun(shell, "CHECKPOINT");
  std::shared_ptr<const Relation> a0 = shell.database().GetShared("a");
  std::shared_ptr<const Relation> b0 = shell.database().GetShared("b");
  MustRun(shell, "EXPLAIN ANALYZE pairs PLAN");

  // Nothing changed: both paged relations are adopted, not decoded, and
  // the statistics of the held handles stay valid.
  std::string opened = MustRun(shell, "OPEN db");
  EXPECT_NE(opened.find("paged: 2 relations from page files (2 adopted)"),
            std::string::npos)
      << opened;
  EXPECT_EQ(shell.database().GetShared("a"), a0);
  EXPECT_EQ(shell.database().GetShared("b"), b0);
  std::string explain = MustRun(shell, "EXPLAIN ANALYZE pairs PLAN");
  EXPECT_EQ(Restatted(explain), 0u);
  EXPECT_NE(explain.find("paged_adopted=2 paged_read=0"), std::string::npos)
      << explain;

  // The append replaces `a`: OPEN adopts the appended handle the session
  // holds, whose statistics no statement has computed yet. `b` is adopted
  // as it is.
  AppendOneRow(shell, vfs, "a");
  opened = MustRun(shell, "OPEN db");
  EXPECT_NE(opened.find("paged: 2 relations from page files (2 adopted)"),
            std::string::npos)
      << opened;
  EXPECT_NE(shell.database().GetShared("a"), a0);
  EXPECT_EQ(shell.database().GetShared("b"), b0);
  EXPECT_EQ(Restatted(MustRun(shell, "EXPLAIN ANALYZE pairs PLAN")), 1u);
  const std::string answers = ResultBody(MustRun(shell, "RUN pairs LIMIT 10000"));

  // Same answers and same recovered state as a fresh session's OPEN.
  Shell fresh;
  fresh.set_vfs(&vfs);
  opened = MustRun(fresh, "OPEN db");
  EXPECT_NE(opened.find("(0 adopted)"), std::string::npos) << opened;
  EXPECT_EQ(ResultBody(MustRun(fresh, "RUN pairs LIMIT 10000")), answers);
  EXPECT_EQ(EncodedState(fresh), EncodedState(shell));
}

TEST(PagedShellTest, ReopensAfterAppendsAdoptAndMatchAFreshOpen) {
  MemVfs vfs;
  Shell shell;
  shell.set_vfs(&vfs);
  MustRun(shell, "OPEN db");
  MustRun(shell, GenBig("a", 7));
  MustRun(shell, GenBig("b", 8));
  MustRun(shell,
          "FLOCK pairs QUERY answer(B) :- a(B,$1) AND b(B,$2) "
          "AND $1 < $2 FILTER COUNT >= 40");
  MustRun(shell, "CHECKPOINT");
  // Two appends, each followed by a re-OPEN, before any CHECKPOINT: each
  // re-OPEN adopts the appended handle the session holds, decoding
  // neither the sidecar nor the appends onto it.
  for (int round = 1; round <= 2; ++round) {
    AppendOneRow(shell, vfs, "a", 1000000 + round);
    std::shared_ptr<const Relation> a = shell.database().GetShared("a");
    std::string opened = MustRun(shell, "OPEN db");
    EXPECT_NE(opened.find("paged: 2 relations from page files (2 adopted)"),
              std::string::npos)
        << opened;
    EXPECT_EQ(shell.database().GetShared("a"), a);
    std::string explain = MustRun(shell, "EXPLAIN ANALYZE pairs PLAN");
    EXPECT_NE(explain.find("paged_adopted=2 paged_read=0 appends_adopted=" +
                           std::to_string(round)),
              std::string::npos)
        << explain;
  }
  const std::string answers =
      ResultBody(MustRun(shell, "RUN pairs LIMIT 10000"));

  Shell fresh;
  fresh.set_vfs(&vfs);
  std::string opened = MustRun(fresh, "OPEN db");
  EXPECT_NE(opened.find("(0 adopted)"), std::string::npos) << opened;
  EXPECT_EQ(ResultBody(MustRun(fresh, "RUN pairs LIMIT 10000")), answers);
  EXPECT_EQ(EncodedState(fresh), EncodedState(shell));
  EXPECT_EQ(fresh.database().Get("a").size(), shell.database().Get("a").size());

  // A CHECKPOINT writes the appended relation's sidecar; the next re-OPEN
  // adopts it with no append on top.
  MustRun(shell, "CHECKPOINT");
  opened = MustRun(shell, "OPEN db");
  EXPECT_NE(opened.find("(2 adopted)"), std::string::npos) << opened;
  EXPECT_NE(MustRun(shell, "EXPLAIN ANALYZE pairs PLAN")
                .find("paged_adopted=2 paged_read=0 appends_adopted=0"),
            std::string::npos);
}

TEST(PagedShellTest, DamagedKeptSidecarFailsReopenLikeAFreshOpen) {
  for (bool truncate : {false, true}) {
    MemVfs vfs;
    Shell shell;
    shell.set_vfs(&vfs);
    MustRun(shell, "OPEN db");
    MustRun(shell, GenBig("a", 7));
    MustRun(shell, GenBig("b", 8));
    MustRun(shell, "CHECKPOINT");
    AppendOneRow(shell, vfs, "a");
    std::string out = MustRun(shell, "CHECKPOINT");
    std::vector<std::string> files = PageFiles(vfs);
    ASSERT_EQ(files.size(), 2u);
    const std::string kept = "db/pages/" + files[1];
    ASSERT_EQ(files[1].rfind("b.", 0), 0u) << files[1];
    if (truncate) {
      Result<std::string> bytes = vfs.ReadFile(kept);
      ASSERT_TRUE(bytes.ok());
      RewriteFile(vfs, kept, bytes->substr(0, bytes->size() - 1));
    } else {
      ASSERT_TRUE(vfs.Remove(kept).ok());
    }
    Result<std::string> same = shell.Execute("OPEN db");
    Shell fresh;
    fresh.set_vfs(&vfs);
    Result<std::string> cold = fresh.Execute("OPEN db");
    ASSERT_FALSE(same.ok()) << "truncate=" << truncate;
    ASSERT_FALSE(cold.ok()) << "truncate=" << truncate;
    EXPECT_EQ(same.status().code(),
              truncate ? StatusCode::kIoError : StatusCode::kNotFound)
        << same.status().ToString();
    EXPECT_EQ(same.status().ToString(), cold.status().ToString());
  }
}

TEST(PagedShellTest, AdoptedRelationsAreNotChargedToTheBudget) {
  MemVfs vfs;
  Shell shell;
  shell.set_vfs(&vfs);
  MustRun(shell, "OPEN db");
  // About 40,000 rows: over 2 MB of governed tuple bytes when decoded.
  MustRun(shell, GenBig("big", 7, 8000));
  MustRun(shell, "CHECKPOINT");
  MustRun(shell, "SET MEMORY 1");
  std::string opened = MustRun(shell, "OPEN db");
  EXPECT_NE(opened.find("(1 adopted)"), std::string::npos) << opened;

  // Decoding the same sidecar under that budget trips it.
  Shell fresh;
  fresh.set_vfs(&vfs);
  MustRun(fresh, "SET MEMORY 1");
  EXPECT_EQ(fresh.Execute("OPEN db").status().code(),
            StatusCode::kResourceExhausted);
}

TEST(PagedShellTest, AdoptedAppendedRelationIsNotChargedToTheBudget) {
  MemVfs vfs;
  Shell shell;
  shell.set_vfs(&vfs);
  MustRun(shell, "OPEN db");
  MustRun(shell, GenBig("big", 7, 8000));
  MustRun(shell, "CHECKPOINT");
  AppendOneRow(shell, vfs, "big");
  MustRun(shell, "SET MEMORY 1");
  std::string opened = MustRun(shell, "OPEN db");
  EXPECT_NE(opened.find("(1 adopted)"), std::string::npos) << opened;

  // Decoding the sidecar and replaying the append under that budget
  // trips it.
  Shell fresh;
  fresh.set_vfs(&vfs);
  MustRun(fresh, "SET MEMORY 1");
  EXPECT_EQ(fresh.Execute("OPEN db").status().code(),
            StatusCode::kResourceExhausted);
}

}  // namespace
}  // namespace qf
