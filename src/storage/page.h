// Paged columnar relation files — the out-of-core relation format behind
// the Vfs seam.
//
// Why: the catalog snapshot used to hold every relation inline, so a
// checkpoint encoded the whole database into one contiguous string and a
// reopen decoded it back — both O(database) in memory and unverifiable at
// any granularity finer than the whole file. A paged sidecar file stores
// one relation as fixed-target-size pages of *column segments*, each page
// independently CRC32C-framed, so writers stream (bounded scratch),
// readers stream (one page resident at a time, optionally cached by the
// buffer pool), and corruption is detected per page with a typed error.
//
// File layout ("QFPAGE01"):
//
//   [8B magic]
//   page 0, page 1, ..., then the directory: one checksummed frame each
//                 (AppendFrame, relational/serialize.h)
//   footer (20B): [u64 directory_offset][u32 masked CRC32C of those 8
//                 bytes][8B magic]
//
// A page payload is `u32 n_rows` followed by the relation's columns in
// schema order, each column a run of n_rows PutValue-encoded values —
// columnar within the page, so per-column scans touch contiguous bytes.
// The directory payload carries the relation name, schema, row count, and
// one {file_offset, framed_len, first_row} entry per page. Readers locate
// the footer with Vfs::FileSize, so the format needs no separate index
// file.
//
// Durability: WritePagedRelation syncs the file before returning; callers
// (the catalog) sync the *directory* and only then publish a reference to
// the file — the standard write-then-rename-era ordering, here
// write-then-snapshot-rotation.
#ifndef QF_STORAGE_PAGE_H_
#define QF_STORAGE_PAGE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/resource.h"
#include "common/status.h"
#include "common/vfs.h"
#include "relational/relation.h"

namespace qf {

class BufferPool;

inline constexpr char kPageMagic[] = "QFPAGE01";  // 8 bytes, both ends
inline constexpr std::size_t kPageMagicLen = 8;
inline constexpr std::size_t kPageFooterLen = 8 + 4 + kPageMagicLen;
// Target encoded payload bytes per page; the last page of a relation and
// any single oversized row may be smaller/larger.
inline constexpr std::size_t kDefaultPageBytes = 64 * 1024;

struct PagedWriteInfo {
  std::uint64_t pages = 0;
  std::uint64_t bytes = 0;  // total file size
};

// Writes `rel` (name, schema, rows in stored order) to `path` as a paged
// file, replacing any existing file. Streams: peak scratch is one page.
// The file is fsynced before returning OK. Governor-pollable.
Result<PagedWriteInfo> WritePagedRelation(
    Vfs& vfs, const std::string& path, const Relation& rel,
    QueryContext* ctx = nullptr, std::size_t page_bytes = kDefaultPageBytes);

// One decoded page, shaped for the buffer pool: immutable after load.
// The rows live in one flat row-major block of n_rows * arity Values —
// one heap allocation per page, not one per row — which the page's
// columns decode straight into. row(r) views row r in place; readers
// copy a row out only where they keep it (ReadAll builds each output
// row once from here). `bytes` is the accounting charge, still
// n_rows * ApproxTupleBytes(arity), so pool eviction and governor
// arithmetic match the one-Tuple-per-row layout it replaced.
struct RelationPage {
  std::size_t n_rows = 0;
  std::size_t arity = 0;
  std::vector<Value> values;  // row r is [r * arity, (r + 1) * arity)
  std::uint64_t bytes = 0;

  std::span<const Value> row(std::size_t r) const {
    return {values.data() + r * arity, arity};
  }
};

// A paged relation file opened for reading. Construction reads and
// verifies only the footer and directory; pages load on demand. When a
// BufferPool is supplied, page loads go through it (shared, cached,
// pinned while in use); otherwise each load reads directly via the Vfs.
class DiskRelation {
 public:
  static Result<std::unique_ptr<DiskRelation>> Open(
      Vfs& vfs, std::string path, BufferPool* pool = nullptr);

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }
  std::uint64_t row_count() const { return row_count_; }
  std::uint64_t page_count() const { return pages_.size(); }
  const std::string& path() const { return path_; }

  // Loads and verifies one page (CRC + row-count cross-check). The result
  // is immutable and possibly shared with the buffer pool. While the
  // caller holds the returned pointer the page stays pinned in the pool.
  Result<std::shared_ptr<const RelationPage>> ReadPage(
      std::size_t index, QueryContext* ctx = nullptr) const;

  // Streams every row in stored order, one page resident at a time
  // (polling `ctx` per page); stops at the first error `fn` returns. Each
  // row is a view into the pinned page, valid only during the call.
  Status Scan(const std::function<Status(std::span<const Value>)>& fn,
              QueryContext* ctx = nullptr) const;

  // Materializes the whole relation (name and schema set). Charges `ctx`
  // for the output like any operator; the caller owns the bytes.
  Result<Relation> ReadAll(QueryContext* ctx = nullptr) const;

  // The last row (none for an empty relation), read from the verified
  // last page without building its other rows; bypasses the pool.
  Result<std::vector<Tuple>> ReadLastRow() const;

 private:
  struct PageEntry {
    std::uint64_t offset = 0;     // file offset of the frame header
    std::uint32_t stored_len = 0; // framed bytes (header + payload)
    std::uint64_t first_row = 0;
  };

  DiskRelation(Vfs& vfs, std::string path, BufferPool* pool)
      : vfs_(&vfs), path_(std::move(path)), pool_(pool) {}

  // Reads page `index` from disk, bypassing the pool.
  Result<std::shared_ptr<const RelationPage>> FetchPage(
      std::size_t index) const;
  // Reads page `index`'s frame into `*framed` and verifies it; returns
  // the payload: the u32 row count, then the columns.
  Result<std::string_view> ReadFrame(std::size_t index,
                                     std::string* framed) const;

  Vfs* vfs_;
  std::string path_;
  BufferPool* pool_;
  std::string name_;
  Schema schema_;
  std::uint64_t row_count_ = 0;
  std::vector<PageEntry> pages_;
};

}  // namespace qf

#endif  // QF_STORAGE_PAGE_H_
