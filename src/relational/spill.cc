#include "relational/spill.h"

#include <utility>

#include "common/check.h"
#include "common/flat_hash.h"
#include "relational/serialize.h"
#include "relational/tuple.h"

namespace qf {
namespace {

// splitmix64-style finalizer over (hash, level): each recursion level
// sees a statistically independent partition assignment, so a partition
// that collides at level k spreads at level k+1 — unless the keys are
// genuinely equal, in which case no hash can separate them and max_depth
// ends the recursion.
std::uint64_t MixLevel(std::uint64_t h, std::size_t level) {
  std::uint64_t x =
      h + 0x9E3779B97F4A7C15ull * (static_cast<std::uint64_t>(level) + 1);
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ull;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBull;
  x ^= x >> 31;
  return x;
}

std::size_t PartitionOf(std::uint64_t hash, std::size_t level,
                        std::size_t fanout) {
  return static_cast<std::size_t>(MixLevel(hash, level) % fanout);
}

// Deadline/cancel poll at the usual stride; `i` is the caller's loop
// counter. Returns the latched typed error once the context trips.
Status PollCtx(QueryContext* ctx, std::size_t i) {
  if (ctx == nullptr) return Status::Ok();
  if (i % QueryContext::kPollStride == 0 && !ctx->Poll()) return ctx->Check();
  if (!ctx->ok()) return ctx->Check();
  return Status::Ok();
}

// The flat-hash kernels address rows by 32-bit refs (same bound as
// relational/ops.cc); one partition never legitimately exceeds it.
void CheckRefRange(std::size_t rows) {
  QF_CHECK_MSG(rows < 0xFFFFFFFFull,
               "flat-hash kernels address at most 2^32-1 rows");
}

// --- record codec ----------------------------------------------------
// Every spill record leads with the row's 64-bit partition-key hash so
// recursion can redistribute records without decoding the values.

void EncodeRecord(std::string& out, std::uint64_t hash, const Tuple& row) {
  out.clear();
  PutU64(out, hash);
  for (const Value& v : row) PutValue(out, v);
}

Status CorruptRecord() { return IoError("corrupt spill record"); }

Status PeekHash(std::string_view record, std::uint64_t* hash) {
  ByteReader r(record);
  if (!r.GetU64(hash)) return CorruptRecord();
  return Status::Ok();
}

Status DecodeRecord(std::string_view record, std::size_t arity,
                    std::uint64_t* hash, Tuple* row) {
  ByteReader r(record);
  if (!r.GetU64(hash)) return CorruptRecord();
  row->clear();
  row->reserve(arity);
  for (std::size_t i = 0; i < arity; ++i) {
    Value v;
    if (!r.GetValue(&v)) return CorruptRecord();
    row->push_back(std::move(v));
  }
  if (!r.AtEnd()) return CorruptRecord();  // arity mismatch
  return Status::Ok();
}

// --- partition plumbing ----------------------------------------------

std::vector<std::unique_ptr<SpillWriter>> MakeWriters(SpillEnv& env) {
  std::vector<std::unique_ptr<SpillWriter>> writers;
  writers.reserve(env.fanout);
  for (std::size_t i = 0; i < env.fanout; ++i) {
    writers.push_back(std::make_unique<SpillWriter>(env));
  }
  return writers;
}

Status FinishWriters(std::vector<std::unique_ptr<SpillWriter>>& writers) {
  for (auto& w : writers) {
    if (Status s = w->Finish(); !s.ok()) return s;
  }
  return Status::Ok();
}

// Streams `path` and redistributes its records into fresh writers
// partitioned at `level` by each record's leading key hash. The caller
// owns the returned writers (their destructors remove the sub-files).
Status Repartition(SpillEnv& env, const std::string& path, std::size_t level,
                   std::vector<std::unique_ptr<SpillWriter>>& out,
                   QueryContext* ctx) {
  out = MakeWriters(env);
  env.stats.recursions.fetch_add(1, std::memory_order_relaxed);
  SpillReader reader(*env.vfs, path, &env);
  std::string_view rec;
  std::size_t i = 0;
  while (reader.Next(&rec)) {
    if (Status s = PollCtx(ctx, ++i); !s.ok()) return s;
    std::uint64_t h = 0;
    if (Status s = PeekHash(rec, &h); !s.ok()) return s;
    if (Status s = out[PartitionOf(h, level, env.fanout)]->Add(rec); !s.ok()) {
      return s;
    }
  }
  if (!reader.status().ok()) return reader.status();
  return FinishWriters(out);
}

// True when loading `records` more rows of the given footprint would
// breach the hard budget and another split level is still allowed.
bool ShouldRecurse(QueryContext* ctx, const SpillEnv& env, std::size_t level,
                   std::uint64_t load_bytes) {
  if (ctx == nullptr || ctx->budget_bytes() == 0) return false;
  if (level + 1 >= env.max_depth) return false;
  return ctx->used_bytes() + load_bytes > ctx->budget_bytes();
}

}  // namespace

// ---------------------------------------------------------------------
// Activation and file management.

bool SpillWanted(const QueryContext* ctx, std::uint64_t projected_bytes) {
  if (ctx == nullptr) return false;
  SpillEnv* env = ctx->spill_env();
  if (env == nullptr || env->vfs == nullptr) return false;
  if (ctx->budget_bytes() == 0) return false;
  double limit = env->activation * static_cast<double>(ctx->budget_bytes());
  return static_cast<double>(ctx->used_bytes()) +
             static_cast<double>(projected_bytes) >
         limit;
}

std::string NewSpillPath(SpillEnv& env) {
  std::uint64_t n = env.seq.fetch_add(1, std::memory_order_relaxed);
  return env.dir + "/" + kSpillFilePrefix + std::to_string(n);
}

Result<std::size_t> RemoveSpillFiles(Vfs& vfs, const std::string& dir) {
  Result<std::vector<std::string>> names = vfs.ListDir(dir);
  if (!names.ok()) return names.status();
  std::size_t removed = 0;
  for (const std::string& name : *names) {
    if (!name.starts_with(kSpillFilePrefix)) continue;
    if (Status s = vfs.Remove(dir + "/" + name); !s.ok()) return s;
    ++removed;
  }
  return removed;
}

// ---------------------------------------------------------------------
// SpillWriter / SpillReader.

SpillWriter::SpillWriter(SpillEnv& env) : env_(env), path_(NewSpillPath(env)) {}

SpillWriter::~SpillWriter() {
  if (file_ != nullptr) file_->Close();
  // RAII cleanup: an aborted statement unwinds its writers and leaves no
  // temp files behind; orphans only survive a process kill.
  if (created_) env_.vfs->Remove(path_);
}

Status SpillWriter::Add(std::string_view record) {
  if (!status_.ok()) return status_;
  PutU32(block_, static_cast<std::uint32_t>(record.size()));
  block_.append(record);
  ++records_;
  env_.stats.spilled_rows.fetch_add(1, std::memory_order_relaxed);
  if (block_.size() >= env_.block_bytes) return FlushBlock();
  return Status::Ok();
}

Status SpillWriter::FlushBlock() {
  if (!status_.ok()) return status_;
  if (block_.empty()) return Status::Ok();
  if (file_ == nullptr) {
    created_ = true;  // before opening: cleanup is attempted regardless
    if (Status s = env_.vfs->CreateDirs(env_.dir); !s.ok()) {
      return status_ = s;
    }
    Result<std::unique_ptr<WritableFile>> f = env_.vfs->OpenTrunc(path_);
    if (!f.ok()) return status_ = f.status();
    file_ = std::move(*f);
    env_.stats.partitions.fetch_add(1, std::memory_order_relaxed);
  }
  std::string frame;
  frame.reserve(kFrameHeaderBytes + block_.size());
  AppendFrame(frame, block_);
  if (Status s = file_->Append(frame); !s.ok()) return status_ = s;
  bytes_ += frame.size();
  env_.stats.bytes_written.fetch_add(frame.size(), std::memory_order_relaxed);
  block_.clear();
  return Status::Ok();
}

Status SpillWriter::Finish() {
  if (Status s = FlushBlock(); !s.ok()) return s;
  if (file_ != nullptr) {
    // No Sync: spill files are transient; a crash loses them by design.
    if (Status s = file_->Close(); !s.ok()) return status_ = s;
    file_ = nullptr;
  }
  return Status::Ok();
}

SpillReader::SpillReader(Vfs& vfs, std::string path, SpillEnv* env)
    : vfs_(vfs), path_(std::move(path)), env_(env) {}

Status SpillReader::LoadBlock() {
  if (!file_size_.has_value()) {
    Result<std::uint64_t> size = vfs_.FileSize(path_);
    if (!size.ok()) return size.status();
    file_size_ = *size;
  }
  if (offset_ >= *file_size_) {
    eof_ = true;
    return Status::Ok();
  }
  if (*file_size_ - offset_ < kFrameHeaderBytes) {
    return IoError("torn spill block header in " + path_);
  }
  // The header's length is bounded by what the file still holds before
  // anything is read (and allocated) for the payload.
  const std::uint64_t max_payload = *file_size_ - offset_ - kFrameHeaderBytes;
  Result<std::string> header = vfs_.ReadAt(path_, offset_, kFrameHeaderBytes);
  if (!header.ok()) return header.status();
  ParsedFrame head = ParseFrame(*header, max_payload);
  if (head.check == FrameCheck::kCorrupt) {
    return IoError("spill block length past end of file in " + path_);
  }
  Result<std::string> framed = vfs_.ReadAt(path_, offset_, head.size());
  if (!framed.ok()) return framed.status();
  ParsedFrame frame = ParseFrame(*framed, max_payload);
  if (frame.check == FrameCheck::kTruncated) {
    return IoError("truncated spill block in " + path_);
  }
  if (frame.check == FrameCheck::kCorrupt) {
    return IoError("spill block checksum mismatch in " + path_);
  }
  offset_ += frame.size();
  if (env_ != nullptr) {
    env_->stats.bytes_read.fetch_add(frame.size(), std::memory_order_relaxed);
  }
  block_ = std::move(*framed);
  pos_ = kFrameHeaderBytes;
  return Status::Ok();
}

bool SpillReader::Next(std::string_view* record) {
  if (!status_.ok() || eof_) return false;
  while (pos_ >= block_.size()) {
    status_ = LoadBlock();
    if (!status_.ok() || eof_) return false;
  }
  if (block_.size() - pos_ < 4) {
    status_ = IoError("torn spill record in " + path_);
    return false;
  }
  ByteReader r(std::string_view(block_).substr(pos_, 4));
  std::uint32_t len = 0;
  r.GetU32(&len);
  pos_ += 4;
  if (block_.size() - pos_ < len) {
    status_ = IoError("torn spill record in " + path_);
    return false;
  }
  *record = std::string_view(block_).substr(pos_, len);
  pos_ += len;
  return true;
}

// ---------------------------------------------------------------------
// SpillGroupSink.

SpillGroupSink::SpillGroupSink(Schema schema, std::size_t key_columns,
                               AggKind kind, const std::string& agg_column,
                               std::string output_column,
                               std::function<Status(const Tuple&)> row_check,
                               SpillEnv& env, QueryContext* ctx,
                               OpMetrics* metrics)
    : schema_(std::move(schema)),
      kind_(kind),
      agg_column_(agg_column),
      output_column_(std::move(output_column)),
      row_check_(std::move(row_check)),
      env_(env),
      ctx_(ctx),
      metrics_(metrics) {
  for (std::size_t i = 0; i < key_columns; ++i) {
    key_names_.push_back(schema_.column(i));
  }
  writers_ = MakeWriters(env_);
}

SpillGroupSink::~SpillGroupSink() = default;

Status SpillGroupSink::Push(const Tuple& row) {
  if (!status_.ok()) return status_;
  if (pushed_rows_ == 0) {
    env_.stats.activations.fetch_add(1, std::memory_order_relaxed);
  }
  if (Status s = PollCtx(ctx_, ++pushed_rows_); !s.ok()) return status_ = s;
  // Group-key hash: the key is the leading prefix of the row, so this is
  // exactly KeyCols of the key columns without the indirection.
  std::size_t h = key_names_.size();
  for (std::size_t i = 0; i < key_names_.size(); ++i) {
    h = TupleHash::HashCombineValue(h, row[i]);
  }
  EncodeRecord(scratch_, h, row);
  if (Status s = writers_[PartitionOf(h, 0, env_.fanout)]->Add(scratch_);
      !s.ok()) {
    return status_ = s;
  }
  return Status::Ok();
}

Status SpillGroupSink::ProcessPartition(const std::string& path,
                                        std::uint64_t records,
                                        std::size_t level, Relation& out) {
  const std::size_t arity = schema_.arity();
  const std::size_t row_bytes = ApproxTupleBytes(arity);
  // A leaf holds its rows and, while it aggregates them, its grouped
  // output (at most one row per loaded row): both must fit the budget.
  const std::size_t leaf_bytes =
      row_bytes + ApproxTupleBytes(key_names_.size() + 1);
  if (ShouldRecurse(ctx_, env_, level, records * leaf_bytes)) {
    std::vector<std::unique_ptr<SpillWriter>> subs;
    if (Status s = Repartition(env_, path, level + 1, subs, ctx_); !s.ok()) {
      return s;
    }
    for (auto& sub : subs) {
      if (sub->records() == 0) continue;
      if (Status s =
              ProcessPartition(sub->path(), sub->records(), level + 1, out);
          !s.ok()) {
        return s;
      }
    }
    return Status::Ok();  // subs destruct here -> sub-files removed
  }

  // Leaf: stream-load into a serial distinct GroupTable. A group's rows
  // all land in this partition and arrive in global push order, so the
  // per-group sequence of distinct rows — and with it the accumulation
  // order — matches the in-memory path exactly.
  CheckRefRange(records);
  std::size_t agg_idx =
      kind_ == AggKind::kCount ? 0 : schema_.IndexOfOrDie(agg_column_);
  GroupTable table(arity, key_names_.size(), kind_, agg_idx,
                   /*distinct=*/true, nullptr, ctx_);
  SpillReader reader(*env_.vfs, path, &env_);
  std::string_view rec;
  Tuple row;
  std::size_t i = 0;
  while (reader.Next(&rec)) {
    if (Status s = PollCtx(ctx_, ++i); !s.ok()) return s;
    std::uint64_t h = 0;
    if (Status s = DecodeRecord(rec, arity, &h, &row); !s.ok()) {
      return s;
    }
    // Copies of a row pass or fail alike, so checking every copy reports
    // the same first failure as checking distinct rows only.
    if (row_check_ != nullptr) {
      if (Status s = row_check_(row); !s.ok()) return s;
    }
    if (!table.Push(row)) break;
  }
  if (!reader.status().ok()) return reader.status();
  if (Status s = table.Flush(); !s.ok()) return s;
  answer_rows_ += table.rows();
  probes_ += table.pushed();
  std::vector<std::string> out_columns = key_names_;
  out_columns.push_back(output_column_);
  Relation grouped = table.Finish(Schema(std::move(out_columns)), nullptr,
                                  /*with_aggregate=*/true);
  for (Tuple& t : grouped.mutable_rows()) out.Add(std::move(t));
  // Drop the answers; the groups stay charged like the rows they became.
  if (ctx_ != nullptr) ctx_->Release(table.rows() * row_bytes);
  return Status::Ok();
}

Result<Relation> SpillGroupSink::Finish() {
  if (!status_.ok()) return status_;
  if (Status s = FinishWriters(writers_); !s.ok()) return s;
  std::vector<std::string> out_columns = key_names_;
  out_columns.push_back(output_column_);
  Relation out{Schema(std::move(out_columns))};
  for (auto& w : writers_) {
    if (w->records() == 0) continue;
    if (Status s = ProcessPartition(w->path(), w->records(), 0, out);
        !s.ok()) {
      return s;
    }
  }
  // Group keys are unique across partitions, so one global sort yields
  // the same canonical order as the in-memory kernel's.
  out.SortRows();
  if (metrics_ != nullptr) {
    metrics_->rows_in += pushed_rows_;
    metrics_->rows_out += out.size();
    metrics_->tuples_probed += probes_;
    metrics_->mem_bytes +=
        static_cast<std::uint64_t>(out.size()) * ApproxTupleBytes(out.arity());
  }
  return out;
}

}  // namespace qf
