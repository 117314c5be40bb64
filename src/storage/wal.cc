#include "storage/wal.h"

#include <utility>

#include "common/metrics.h"
#include "relational/serialize.h"

namespace qf {

WalReadResult ParseWal(std::string_view data) {
  WalReadResult out;
  std::size_t pos = 0;
  for (;;) {
    std::string_view rest = data.substr(pos);
    ParsedFrame frame = ParseFrame(rest, rest.size());
    if (frame.check != FrameCheck::kOk) break;  // torn or corrupt tail
    out.payloads.emplace_back(frame.payload);
    pos += frame.size();
  }
  out.valid_bytes = pos;
  out.dropped_bytes = data.size() - pos;
  return out;
}

Result<WalReadResult> ReadWal(Vfs& vfs, const std::string& path) {
  if (!vfs.Exists(path)) return WalReadResult{};
  Result<std::string> data = vfs.ReadFile(path);
  if (!data.ok()) return data.status();
  return ParseWal(*data);
}

WalWriter::WalWriter(Vfs& vfs, std::string path, StorageStats* stats)
    : vfs_(vfs), path_(std::move(path)), stats_(stats) {}

Status WalWriter::Open() {
  Result<std::unique_ptr<WritableFile>> file = vfs_.OpenAppend(path_);
  if (!file.ok()) return file.status();
  // The open may have created the file, and fsyncing record content does
  // not make the *directory entry* durable: without a dir fsync here a
  // crash could drop the entire log even though every commit synced.
  if (Status s = vfs_.SyncDir(VfsDirName(path_)); !s.ok()) return s;
  if (stats_ != nullptr) ++stats_->fsyncs;
  file_ = std::move(*file);
  return Status::Ok();
}

Status WalWriter::ReplaceWith(const std::string& content) {
  file_.reset();
  // Never truncate the live log in place: POSIX gives no ordering between
  // an O_TRUNC reaching stable storage and the rewritten bytes doing so,
  // so a crash (or ENOSPC) in that window would destroy the valid prefix
  // and with it acknowledged commits. Temp + fsync + rename + dir fsync
  // keeps the old log intact until the new one is fully durable.
  if (Status s = AtomicWriteFile(vfs_, path_, content); !s.ok()) return s;
  Result<std::unique_ptr<WritableFile>> file = vfs_.OpenAppend(path_);
  if (!file.ok()) return file.status();
  if (stats_ != nullptr) stats_->fsyncs += 2;  // AtomicWriteFile's pair
  file_ = std::move(*file);
  return Status::Ok();
}

Status WalWriter::Reset() { return ReplaceWith(std::string()); }

Status WalWriter::Rewrite(const std::vector<std::string>& payloads) {
  std::string content;
  for (const std::string& payload : payloads) {
    AppendFrame(content, payload);
  }
  return ReplaceWith(content);
}

Status WalWriter::Append(const std::vector<std::string>& payloads) {
  if (file_ == nullptr) {
    return FailedPreconditionError("WAL writer is not open: " + path_);
  }
  std::string batch;
  for (const std::string& payload : payloads) {
    AppendFrame(batch, payload);
  }
  if (Status s = file_->Append(batch); !s.ok()) return s;
  std::uint64_t t0 = MetricsNowNs();
  if (Status s = file_->Sync(); !s.ok()) return s;
  if (stats_ != nullptr) {
    stats_->wal_sync_ns += MetricsNowNs() - t0;
    ++stats_->fsyncs;
    stats_->wal_records += payloads.size();
    stats_->wal_bytes += batch.size();
  }
  return Status::Ok();
}

}  // namespace qf
