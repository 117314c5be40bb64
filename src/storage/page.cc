#include "storage/page.h"

#include <utility>

#include "common/crc32c.h"
#include "relational/serialize.h"
#include "storage/buffer_pool.h"

namespace qf {
namespace {

// Verifies and strips the frame at the start of `framed`.
Result<std::string_view> ParseFramed(std::string_view framed,
                                     const std::string& path,
                                     const char* what) {
  ParsedFrame frame = ParseFrame(framed, framed.size());
  if (frame.check == FrameCheck::kTruncated) {
    return IoError(std::string("paged relation: truncated ") + what + " in " +
                   path);
  }
  if (frame.check == FrameCheck::kCorrupt) {
    return IoError(std::string("paged relation: checksum mismatch in ") +
                   what + " of " + path);
  }
  return frame.payload;
}

// The one column decoder of a page payload (after its u32 row count):
// each column is a run of n_rows values. Writes rows [first, n_rows) of
// every column into `out`, row-major and `arity` wide, skipping each
// column's earlier values. False on a malformed value.
bool DecodeColumns(ByteReader& in, std::size_t arity, std::uint32_t n_rows,
                   std::uint32_t first, Value* out) {
  for (std::size_t c = 0; c < arity; ++c) {
    for (std::uint32_t r = 0; r < first; ++r) {
      if (!in.SkipValue()) return false;
    }
    for (std::uint32_t r = first; r < n_rows; ++r) {
      if (!in.GetValue(&out[(r - first) * arity + c])) return false;
    }
  }
  return true;
}

}  // namespace

Result<PagedWriteInfo> WritePagedRelation(Vfs& vfs, const std::string& path,
                                          const Relation& rel,
                                          QueryContext* ctx,
                                          std::size_t page_bytes) {
  Result<std::unique_ptr<WritableFile>> file = vfs.OpenTrunc(path);
  if (!file.ok()) return file.status();

  PagedWriteInfo info;
  std::uint64_t offset = 0;
  auto write = [&](std::string_view bytes) -> Status {
    Status s = (*file)->Append(bytes);
    if (s.ok()) offset += bytes.size();
    return s;
  };
  if (Status s = write(std::string_view(kPageMagic, kPageMagicLen)); !s.ok()) {
    return s;
  }

  const std::size_t arity = rel.arity();
  // Per-column scratch for the page being accumulated; flushed when the
  // combined encoded size reaches the target.
  std::vector<std::string> cols(arity);
  std::size_t pending_rows = 0;
  std::uint64_t first_row = 0;
  std::string frame;
  std::string dir_payload;
  std::vector<std::pair<std::uint64_t, std::uint32_t>> page_frames;
  std::vector<std::uint64_t> page_first_rows;

  auto flush_page = [&]() -> Status {
    if (pending_rows == 0) return Status::Ok();
    frame.clear();
    std::string payload;
    PutU32(payload, static_cast<std::uint32_t>(pending_rows));
    for (std::string& c : cols) {
      payload += c;
      c.clear();
    }
    AppendFrame(frame, payload);
    std::uint64_t page_offset = offset;
    if (Status s = write(frame); !s.ok()) return s;
    page_frames.emplace_back(page_offset,
                             static_cast<std::uint32_t>(frame.size()));
    page_first_rows.push_back(first_row);
    first_row += pending_rows;
    pending_rows = 0;
    ++info.pages;
    return Status::Ok();
  };

  for (std::size_t r = 0; r < rel.size(); ++r) {
    if (ctx != nullptr && r % QueryContext::kPollStride == 0 &&
        !ctx->Poll()) {
      return ctx->Check();
    }
    const Tuple& row = rel.rows()[r];
    std::size_t encoded = 0;
    for (std::size_t c = 0; c < arity; ++c) {
      PutValue(cols[c], row[c]);
      encoded += cols[c].size();
    }
    ++pending_rows;
    if (encoded >= page_bytes) {
      if (Status s = flush_page(); !s.ok()) return s;
    }
  }
  if (Status s = flush_page(); !s.ok()) return s;

  // Directory.
  PutString(dir_payload, rel.name());
  PutU32(dir_payload, static_cast<std::uint32_t>(arity));
  for (const std::string& c : rel.schema().columns()) {
    PutString(dir_payload, c);
  }
  PutU64(dir_payload, static_cast<std::uint64_t>(rel.size()));
  PutU32(dir_payload, static_cast<std::uint32_t>(page_frames.size()));
  for (std::size_t i = 0; i < page_frames.size(); ++i) {
    PutU64(dir_payload, page_frames[i].first);
    PutU32(dir_payload, page_frames[i].second);
    PutU64(dir_payload, page_first_rows[i]);
  }
  std::uint64_t dir_offset = offset;
  frame.clear();
  AppendFrame(frame, dir_payload);
  if (Status s = write(frame); !s.ok()) return s;

  // Footer: fixed-size, so readers find the directory from FileSize.
  std::string footer;
  std::string offset_bytes;
  PutU64(offset_bytes, dir_offset);
  footer += offset_bytes;
  PutU32(footer, Crc32cMask(Crc32c(offset_bytes)));
  footer.append(kPageMagic, kPageMagicLen);
  if (Status s = write(footer); !s.ok()) return s;

  if (Status s = (*file)->Sync(); !s.ok()) return s;
  if (Status s = (*file)->Close(); !s.ok()) return s;
  info.bytes = offset;
  return info;
}

Result<std::unique_ptr<DiskRelation>> DiskRelation::Open(Vfs& vfs,
                                                         std::string path,
                                                         BufferPool* pool) {
  std::unique_ptr<DiskRelation> rel(
      new DiskRelation(vfs, std::move(path), pool));
  const std::string& p = rel->path_;

  Result<std::uint64_t> size = vfs.FileSize(p);
  if (!size.ok()) return size.status();
  if (*size < kPageMagicLen + kPageFooterLen) {
    return IoError("paged relation: file too short: " + p);
  }
  Result<std::string> head = vfs.ReadAt(p, 0, kPageMagicLen);
  if (!head.ok()) return head.status();
  if (*head != std::string_view(kPageMagic, kPageMagicLen)) {
    return IoError("paged relation: bad magic in " + p);
  }
  Result<std::string> footer =
      vfs.ReadAt(p, *size - kPageFooterLen, kPageFooterLen);
  if (!footer.ok()) return footer.status();
  ByteReader f(*footer);
  std::string_view offset_bytes;
  std::uint32_t masked = 0;
  std::string_view tail_magic;
  if (!f.GetBytes(8, &offset_bytes) || !f.GetU32(&masked) ||
      !f.GetBytes(kPageMagicLen, &tail_magic) ||
      tail_magic != std::string_view(kPageMagic, kPageMagicLen)) {
    return IoError("paged relation: bad footer in " + p);
  }
  if (Crc32c(offset_bytes) != Crc32cUnmask(masked)) {
    return IoError("paged relation: footer checksum mismatch in " + p);
  }
  ByteReader ob(offset_bytes);
  std::uint64_t dir_offset = 0;
  ob.GetU64(&dir_offset);
  if (dir_offset < kPageMagicLen || dir_offset >= *size - kPageFooterLen) {
    return IoError("paged relation: directory offset out of range in " + p);
  }

  Result<std::string> dir_framed =
      vfs.ReadAt(p, dir_offset, *size - kPageFooterLen - dir_offset);
  if (!dir_framed.ok()) return dir_framed.status();
  Result<std::string_view> dir_payload =
      ParseFramed(*dir_framed, p, "directory");
  if (!dir_payload.ok()) return dir_payload.status();

  ByteReader d(*dir_payload);
  std::string_view name;
  std::uint32_t arity = 0;
  if (!d.GetString(&name) || !d.GetU32(&arity)) {
    return IoError("paged relation: malformed directory in " + p);
  }
  std::vector<std::string> columns;
  columns.reserve(arity);
  for (std::uint32_t i = 0; i < arity; ++i) {
    std::string_view col;
    if (!d.GetString(&col)) {
      return IoError("paged relation: malformed directory in " + p);
    }
    columns.emplace_back(col);
  }
  std::uint32_t n_pages = 0;
  if (!d.GetU64(&rel->row_count_) || !d.GetU32(&n_pages)) {
    return IoError("paged relation: malformed directory in " + p);
  }
  rel->pages_.reserve(n_pages);
  // Offsets must land inside the data region and first_row must start at
  // zero and never decrease; exact per-page row counts are cross-checked
  // against the decoded payload in ReadPage.
  std::uint64_t prev_first = 0;
  for (std::uint32_t i = 0; i < n_pages; ++i) {
    PageEntry e;
    if (!d.GetU64(&e.offset) || !d.GetU32(&e.stored_len) ||
        !d.GetU64(&e.first_row)) {
      return IoError("paged relation: malformed page table in " + p);
    }
    if (e.offset < kPageMagicLen || e.offset + e.stored_len > dir_offset ||
        (i == 0 ? e.first_row != 0 : e.first_row < prev_first)) {
      return IoError("paged relation: inconsistent page table in " + p);
    }
    prev_first = e.first_row;
    rel->pages_.push_back(e);
  }
  if (!d.AtEnd()) {
    return IoError("paged relation: trailing directory bytes in " + p);
  }
  rel->name_ = std::string(name);
  rel->schema_ = Schema(std::move(columns));
  return rel;
}

Result<std::string_view> DiskRelation::ReadFrame(std::size_t index,
                                                 std::string* framed) const {
  const PageEntry& e = pages_[index];
  Result<std::string> bytes = vfs_->ReadAt(path_, e.offset, e.stored_len);
  if (!bytes.ok()) return bytes.status();
  if (bytes->size() != e.stored_len) {
    return IoError("paged relation: short page read in " + path_);
  }
  *framed = std::move(*bytes);
  return ParseFramed(*framed, path_, "page");
}

Result<std::shared_ptr<const RelationPage>> DiskRelation::FetchPage(
    std::size_t index) const {
  std::string framed;
  Result<std::string_view> payload = ReadFrame(index, &framed);
  if (!payload.ok()) return payload.status();

  ByteReader in(*payload);
  std::uint32_t n_rows = 0;
  if (!in.GetU32(&n_rows)) {
    return IoError("paged relation: malformed page in " + path_);
  }
  std::uint64_t expect =
      (index + 1 < pages_.size() ? pages_[index + 1].first_row
                                 : row_count_) -
      pages_[index].first_row;
  if (n_rows != expect) {
    return IoError("paged relation: page row count mismatch in " + path_);
  }
  auto page = std::make_shared<RelationPage>();
  page->n_rows = n_rows;
  page->arity = schema_.arity();
  page->values.resize(page->n_rows * page->arity);
  if (!DecodeColumns(in, page->arity, n_rows, 0, page->values.data())) {
    return IoError("paged relation: malformed page in " + path_);
  }
  if (!in.AtEnd()) {
    return IoError("paged relation: trailing page bytes in " + path_);
  }
  page->bytes = n_rows * ApproxTupleBytes(page->arity);
  return std::shared_ptr<const RelationPage>(std::move(page));
}

Result<std::shared_ptr<const RelationPage>> DiskRelation::ReadPage(
    std::size_t index, QueryContext* ctx) const {
  if (index >= pages_.size()) {
    return InvalidArgumentError("page index out of range");
  }
  if (pool_ == nullptr) {
    return FetchPage(index);
  }
  Result<BufferPool::PageRef> ref = pool_->Pin(
      path_, index, [this, index]() { return FetchPage(index); }, ctx);
  if (!ref.ok()) return ref.status();
  // The shared_ptr outlives the ref: the pool frame holds the page alive
  // (and on eviction the caller's copy keeps the data valid).
  return ref->page();
}

Status DiskRelation::Scan(
    const std::function<Status(std::span<const Value>)>& fn,
    QueryContext* ctx) const {
  for (std::size_t i = 0; i < pages_.size(); ++i) {
    if (ctx != nullptr && !ctx->Poll()) return ctx->Check();
    Result<std::shared_ptr<const RelationPage>> page = ReadPage(i, ctx);
    if (!page.ok()) return page.status();
    const RelationPage& pinned = **page;
    for (std::size_t r = 0; r < pinned.n_rows; ++r) {
      if (Status s = fn(pinned.row(r)); !s.ok()) return s;
    }
  }
  return Status::Ok();
}

Result<std::vector<Tuple>> DiskRelation::ReadLastRow() const {
  std::vector<Tuple> last;
  if (row_count_ == 0) return last;
  if (pages_.empty()) {
    return IoError("paged relation: rows but no pages in " + path_);
  }
  std::string framed;
  Result<std::string_view> payload = ReadFrame(pages_.size() - 1, &framed);
  if (!payload.ok()) return payload.status();
  ByteReader in(*payload);
  std::uint32_t n_rows = 0;
  last.emplace_back(schema_.arity());
  // Decodes only the last row; each column's earlier values are skipped.
  bool ok = in.GetU32(&n_rows) && n_rows > 0 &&
            n_rows == row_count_ - pages_.back().first_row &&
            DecodeColumns(in, schema_.arity(), n_rows, n_rows - 1,
                          last.back().data()) &&
            in.AtEnd();
  if (!ok) {
    return IoError("paged relation: malformed last page in " + path_);
  }
  return last;
}

Result<Relation> DiskRelation::ReadAll(QueryContext* ctx) const {
  Relation out{schema_};
  std::vector<Tuple>& rows = out.mutable_rows();
  rows.reserve(row_count_);
  OpGovernor gov(ctx, ApproxTupleBytes(schema_.arity()));
  Status scan = Scan(
      [&](std::span<const Value> row) -> Status {
        if (!gov.Admit()) {
          return ctx != nullptr ? ctx->Check()
                                : InternalError("governor tripped");
        }
        rows.emplace_back(row.begin(), row.end());
        return Status::Ok();
      },
      ctx);
  gov.Flush();
  if (!scan.ok()) return scan;
  if (ctx != nullptr) {
    if (Status s = ctx->Check(); !s.ok()) return s;
  }
  if (out.size() != row_count_) {
    return IoError("paged relation: row count mismatch in " + path_);
  }
  out.set_name(name_);
  return out;
}

}  // namespace qf
