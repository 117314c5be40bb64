#include "relational/ops.h"

#include <algorithm>
#include <cstdint>
#include <optional>
#include <utility>

#include "common/check.h"
#include "common/flat_hash.h"
#include "common/thread_pool.h"

namespace qf {
namespace {

// GroupTable's partition of a group-key hash: its top bits after a
// Fibonacci multiply (the tables index slots by the low bits).
std::size_t PartitionOf(std::uint64_t key_hash) {
  static_assert(GroupTable::kPartitions == 32, "5 bits pick a partition");
  return static_cast<std::size_t>((key_hash * 0x9E3779B97F4A7C15ull) >> 59);
}

// The flat-hash kernels address rows by 32-bit refs.
void CheckRefRange(std::size_t rows) {
  QF_CHECK_MSG(rows < 0xFFFFFFFFull,
               "flat-hash kernels address at most 2^32-1 rows");
}

JoinLayout ComputeJoinLayout(const Relation& a, const Relation& b) {
  JoinLayout layout;
  for (std::size_t j = 0; j < b.arity(); ++j) {
    std::optional<std::size_t> i = a.schema().IndexOf(b.schema().column(j));
    if (i.has_value()) {
      layout.a_key.push_back(*i);
      layout.b_key.push_back(j);
    } else {
      layout.b_rest.push_back(j);
    }
  }
  return layout;
}

}  // namespace

// Key columns are hashed and compared in place on the stored rows, so no
// key Tuple is ever materialized.
JoinIndex::JoinIndex(const Relation& a, const Relation& b)
    : a_(a), b_(b), layout_(ComputeJoinLayout(a, b)) {
  CheckRefRange(b.size());
  index_.Reserve(b.size());
  KeyCols key(layout_.b_key, b.arity());
  const std::vector<Tuple>& rows = b.rows();
  for (std::size_t r = 0; r < rows.size(); ++r) {
    const Tuple& t = rows[r];
    index_.AddRow(
        static_cast<std::uint32_t>(r), key.Hash(t),
        [&](std::uint32_t prev) { return key.Eq(t, rows[prev]); },
        build_probes_);
  }
  index_.Finalize();
}

Schema JoinIndex::JoinedSchema() const {
  std::vector<std::string> columns = a_.schema().columns();
  for (std::size_t j : layout_.b_rest) columns.push_back(b_.schema().column(j));
  return Schema(std::move(columns));
}

Relation Project(const Relation& rel,
                 const std::vector<std::string>& columns,
                 OpMetrics* metrics, QueryContext* ctx) {
  std::vector<std::size_t> indices;
  indices.reserve(columns.size());
  for (const std::string& c : columns) {
    indices.push_back(rel.schema().IndexOfOrDie(c));
  }
  Relation out{Schema(columns)};
  CheckRefRange(rel.size());
  KeyCols key(indices, rel.arity());
  // Dedup rows by their projected columns in place — the projection is
  // materialized only for rows that survive.
  FlatTupleSet seen;
  seen.Reserve(rel.size());
  std::uint64_t probes = 0;
  OpGovernor gov(ctx, ApproxTupleBytes(columns.size()));
  const std::vector<Tuple>& rows = rel.rows();
  for (std::size_t r = 0; r < rows.size(); ++r) {
    if (!gov.TickInput()) break;
    const Tuple& t = rows[r];
    bool fresh = seen.Insert(
        static_cast<std::uint32_t>(r), key.Hash(t),
        [&](std::uint32_t prev) { return key.Eq(t, rows[prev]); }, probes);
    if (fresh) {
      if (!gov.Admit()) break;
      out.Add(key.Extract(t));
    }
  }
  gov.Flush();
  if (metrics != nullptr) {
    metrics->rows_in += rel.size();
    metrics->rows_out += out.size();
    metrics->tuples_probed += probes;  // dedup-set slot probes
    metrics->mem_bytes += gov.total_bytes();
  }
  return out;
}

Relation Select(const Relation& rel,
                const std::function<bool(const Tuple&)>& pred,
                OpMetrics* metrics, QueryContext* ctx) {
  Relation out(rel.schema());
  OpGovernor gov(ctx, ApproxTupleBytes(rel.arity()));
  for (const Tuple& t : rel.rows()) {
    if (!gov.TickInput()) break;
    if (pred(t)) {
      if (!gov.Admit()) break;
      out.Add(t);
    }
  }
  gov.Flush();
  if (metrics != nullptr) {
    metrics->rows_in += rel.size();
    metrics->rows_out += out.size();
    metrics->mem_bytes += gov.total_bytes();
  }
  return out;
}

Relation Rename(Relation rel, std::vector<std::string> new_names) {
  QF_CHECK_MSG(new_names.size() == rel.arity(), "Rename arity mismatch");
  Relation out(Schema(std::move(new_names)));
  out.mutable_rows() = std::move(rel.mutable_rows());
  return out;
}

RowPiece ConcatPieces(std::vector<RowPiece> pieces) {
  if (pieces.size() == 1) return std::move(pieces.front());
  RowPiece all;
  std::size_t total = 0;
  for (const RowPiece& piece : pieces) total += piece.rows.size();
  all.rows.reserve(total);
  for (RowPiece& piece : pieces) {
    for (Tuple& t : piece.rows) all.rows.push_back(std::move(t));
    all.probes += piece.probes;
    all.bytes += piece.bytes;
  }
  return all;
}

Relation NaturalJoin(const Relation& a, const Relation& b, unsigned threads,
                     OpMetrics* metrics, QueryContext* ctx) {
  JoinLayout layout = ComputeJoinLayout(a, b);
  std::vector<std::string> columns = a.schema().columns();
  for (std::size_t j : layout.b_rest) columns.push_back(b.schema().column(j));
  Relation out{Schema(std::move(columns))};
  std::uint64_t probes = 0;
  if (!a.empty() && !b.empty()) {
    // A shared read-only index over b; a's rows probe it piecewise, each
    // piece into its own buffer. The probe morsel size is fixed — never
    // derived from `threads` — so the pieces concatenate to the one-piece
    // row order at every thread count. A cross product (no shared
    // column) always runs as one piece.
    JoinIndex index(a, b);
    probes += index.build_probes();
    constexpr std::size_t kMorselRows = 4096;
    RowPiece joined = ConcatPieces(RunMorsels<RowPiece>(
        index.cross() ? 1 : threads, a.size(), kMorselRows, ctx, metrics,
        [&](std::size_t begin, std::size_t end, RowPiece& piece) {
          OpGovernor gov(ctx, ApproxTupleBytes(out.arity()));
          index.ProbeRange(begin, end, gov, piece.probes,
                           [&](const Tuple& ta, const Tuple& tb) {
                             if (!gov.Admit()) return false;
                             Tuple combined = ta;
                             for (std::size_t j : layout.b_rest) {
                               combined.push_back(tb[j]);
                             }
                             piece.rows.push_back(std::move(combined));
                             return true;
                           });
          gov.Flush();
          piece.bytes = gov.total_bytes();
        }));
    out.mutable_rows() = std::move(joined.rows);
    probes += joined.probes;
    if (metrics != nullptr) metrics->mem_bytes += joined.bytes;
  }
  if (metrics != nullptr) {
    metrics->rows_in += a.size();
    metrics->rows_in_right += b.size();
    metrics->rows_out += out.size();
    // Hash-table slot probes across the build and probe phases (zero when
    // an empty input short-circuits both): the same index and per-row
    // probe paths at every thread count, so the count is thread-invariant.
    metrics->tuples_probed += probes;
  }
  return out;
}

namespace {

void RecordSemiAntiMetrics(OpMetrics* metrics, const Relation& a,
                           const Relation& b, std::size_t rows_out,
                           std::uint64_t probes) {
  if (metrics == nullptr) return;
  metrics->rows_in += a.size();
  metrics->rows_in_right += b.size();
  metrics->rows_out += rows_out;
  metrics->tuples_probed += probes;  // key-set slot probes (build + probe)
}

// Shared core of SemiJoin/AntiJoin: builds the flat set of b's key
// tuples (hashed in place) and keeps the a rows whose key membership
// equals `keep_present`.
Relation SemiAntiJoin(const Relation& a, const Relation& b,
                      bool keep_present, bool empty_key_keeps_a,
                      OpMetrics* metrics, QueryContext* ctx) {
  JoinLayout layout = ComputeJoinLayout(a, b);
  Relation out(a.schema());
  out.set_name(a.name());
  if (layout.a_key.empty()) {
    // No shared columns: b acts as a boolean guard, nothing is probed.
    const Relation& result = (b.empty() == empty_key_keeps_a) ? a : out;
    RecordSemiAntiMetrics(metrics, a, b, result.size(), 0);
    return result;
  }
  CheckRefRange(b.size());
  KeyCols a_key(layout.a_key, a.arity());
  KeyCols b_key(layout.b_key, b.arity());
  FlatTupleSet keys;
  keys.Reserve(b.size());
  std::uint64_t probes = 0;
  const std::vector<Tuple>& b_rows = b.rows();
  for (std::size_t r = 0; r < b_rows.size(); ++r) {
    const Tuple& tb = b_rows[r];
    keys.Insert(
        static_cast<std::uint32_t>(r), b_key.Hash(tb),
        [&](std::uint32_t prev) { return b_key.Eq(tb, b_rows[prev]); },
        probes);
  }
  OpGovernor gov(ctx, ApproxTupleBytes(a.arity()));
  for (const Tuple& ta : a.rows()) {
    if (!gov.TickInput()) break;
    bool present = keys.Contains(
        a_key.Hash(ta),
        [&](std::uint32_t rb) {
          return a_key.EqAcross(ta, b_key, b_rows[rb]);
        },
        probes);
    if (present == keep_present) {
      if (!gov.Admit()) break;
      out.Add(ta);
    }
  }
  gov.Flush();
  RecordSemiAntiMetrics(metrics, a, b, out.size(), probes);
  if (metrics != nullptr) metrics->mem_bytes += gov.total_bytes();
  return out;
}

}  // namespace

Relation SemiJoin(const Relation& a, const Relation& b, OpMetrics* metrics,
                  QueryContext* ctx) {
  return SemiAntiJoin(a, b, /*keep_present=*/true,
                      /*empty_key_keeps_a=*/false, metrics, ctx);
}

Relation AntiJoin(const Relation& a, const Relation& b, OpMetrics* metrics,
                  QueryContext* ctx) {
  return SemiAntiJoin(a, b, /*keep_present=*/false,
                      /*empty_key_keeps_a=*/true, metrics, ctx);
}

Relation Union(const Relation& a, const Relation& b, OpMetrics* metrics,
               QueryContext* ctx) {
  QF_CHECK_MSG(a.arity() == b.arity(), "Union arity mismatch");
  Relation out(a.schema());
  CheckRefRange(a.size() + b.size());
  // One dedup set over both inputs; refs < a.size() name a's rows, the
  // rest name b's (offset by a.size()).
  auto row_of = [&](std::uint32_t ref) -> const Tuple& {
    return ref < a.size() ? a.rows()[ref] : b.rows()[ref - a.size()];
  };
  TupleHash hash;
  FlatTupleSet seen;
  seen.Reserve(a.size() + b.size());
  std::uint64_t probes = 0;
  OpGovernor gov(ctx, ApproxTupleBytes(a.arity()));
  for (std::size_t r = 0; r < a.size() + b.size(); ++r) {
    if (!gov.TickInput()) break;
    const Tuple& t = row_of(static_cast<std::uint32_t>(r));
    bool fresh = seen.Insert(
        static_cast<std::uint32_t>(r), hash(t),
        [&](std::uint32_t prev) { return row_of(prev) == t; }, probes);
    if (fresh) {
      if (!gov.Admit()) break;
      out.Add(t);
    }
  }
  gov.Flush();
  if (metrics != nullptr) {
    metrics->rows_in += a.size();
    metrics->rows_in_right += b.size();
    metrics->rows_out += out.size();
    metrics->tuples_probed += probes;  // dedup-set slot probes
    metrics->mem_bytes += gov.total_bytes();
  }
  return out;
}

Relation Difference(const Relation& a, const Relation& b) {
  QF_CHECK_MSG(a.arity() == b.arity(), "Difference arity mismatch");
  CheckRefRange(b.size());
  TupleHash hash;
  FlatTupleSet exclude;
  exclude.Reserve(b.size());
  std::uint64_t probes = 0;
  const std::vector<Tuple>& b_rows = b.rows();
  for (std::size_t r = 0; r < b_rows.size(); ++r) {
    const Tuple& t = b_rows[r];
    exclude.Insert(
        static_cast<std::uint32_t>(r), hash(t),
        [&](std::uint32_t prev) { return b_rows[prev] == t; }, probes);
  }
  Relation out(a.schema());
  for (const Tuple& t : a.rows()) {
    bool present = exclude.Contains(
        hash(t), [&](std::uint32_t rb) { return b_rows[rb] == t; }, probes);
    if (!present) out.Add(t);
  }
  return out;
}

Relation Distinct(const Relation& rel) {
  Relation out = rel;
  out.Dedup();
  return out;
}

struct GroupTable::Part {
  std::vector<Value> rows;    // distinct rows, arity_ values each
  std::vector<Value> groups;  // per group: its key values, then aggregate
  FlatIdTable seen;           // row hash -> distinct row
  FlatIdTable index;          // key hash -> group
  std::uint64_t n_rows = 0;
  std::uint64_t uncharged = 0;  // bytes held but not yet charged
  std::uint64_t probes = 0;     // slot probes; unreported (see pushed())
  Status status;
};

GroupTable::GroupTable(std::size_t arity, std::size_t n_keys, AggKind kind,
                       std::size_t agg, bool distinct,
                       std::function<Status(const Value&)> check,
                       QueryContext* ctx)
    : arity_(arity),
      n_keys_(n_keys),
      kind_(kind),
      agg_(agg),
      distinct_(distinct),
      check_(std::move(check)),
      ctx_(ctx),
      parts_(kPartitions) {}

GroupTable::~GroupTable() = default;

std::uint64_t GroupTable::KeyHash(const Value* row) const {
  // TupleHash of the key prefix (KeyCols::Hash).
  std::size_t h = n_keys_;
  for (std::size_t i = 0; i < n_keys_; ++i) {
    h = TupleHash::HashCombineValue(h, row[i]);
  }
  return h;
}

bool GroupTable::Insert(Part& part, const Value* row, std::uint64_t key_hash) {
  if (!part.status.ok()) return false;
  if (distinct_) {
    std::size_t h = arity_;
    for (std::size_t i = 0; i < arity_; ++i) {
      h = TupleHash::HashCombineValue(h, row[i]);
    }
    bool fresh = part.seen
                     .Upsert(h,
                             [&](std::uint32_t id) {
                               return std::equal(
                                   row, row + arity_,
                                   part.rows.data() + id * arity_);
                             },
                             part.probes)
                     .second;
    if (!fresh) return true;
    part.rows.insert(part.rows.end(), row, row + arity_);
    if (check_ != nullptr) {
      part.status = check_(row[agg_]);
      if (!part.status.ok()) return false;
    }
    part.uncharged += ApproxTupleBytes(arity_);
  }
  ++part.n_rows;
  // A group's key values and its aggregate share one record, so the key
  // compare and the update touch the same cache lines.
  const std::size_t nk = n_keys_;
  auto [g, inserted] = part.index.Upsert(
      key_hash,
      [&](std::uint32_t id) {
        return std::equal(row, row + nk, &part.groups[id * (nk + 1)]);
      },
      part.probes);
  if (inserted) {
    part.groups.insert(part.groups.end(), row, row + nk);
    part.groups.emplace_back();  // the aggregate, set below
    part.uncharged += ApproxTupleBytes(nk + 1);
  }
  Value& acc = part.groups[g * (nk + 1) + nk];
  switch (kind_) {
    case AggKind::kCount:  // reads no column: rows may be the bare key
      acc = Value(inserted ? std::int64_t{1} : acc.AsInt() + 1);
      break;
    case AggKind::kSum:
      QF_CHECK_MSG(row[agg_].IsNumeric(), "SUM over non-numeric value");
      acc = Value((inserted ? 0.0 : acc.AsDouble()) + row[agg_].AsNumber());
      break;
    case AggKind::kMin:
    case AggKind::kMax:
      if (inserted ||
          (kind_ == AggKind::kMin ? row[agg_] < acc : acc < row[agg_])) {
        acc = row[agg_];
      }
      break;
  }
  // Charge in strides, like OpGovernor.
  if (ctx_ != nullptr &&
      part.uncharged >= QueryContext::kPollStride * ApproxTupleBytes(1)) {
    if (!ctx_->Charge(std::exchange(part.uncharged, 0)) || !ctx_->Poll()) {
      part.status = ctx_->Check();
      return false;
    }
  }
  return true;
}

bool GroupTable::Push(const Tuple& row) {
  ++pushed_;
  std::uint64_t h = KeyHash(row.data());
  return Insert(parts_[PartitionOf(h)], row.data(), h);
}

bool GroupTable::Buffer(Piece& piece, const Tuple& row) {
  std::uint64_t h = KeyHash(row.data());
  std::size_t p = PartitionOf(h);
  piece.rows[p].insert(piece.rows[p].end(), row.begin(), row.end());
  piece.hashes[p].push_back(h);
  if (++piece.pushed % QueryContext::kPollStride != 0 || ctx_ == nullptr) {
    return ctx_ == nullptr || ctx_->ok();
  }
  piece.charged += QueryContext::kPollStride * ApproxTupleBytes(arity_);
  return ctx_->Charge(QueryContext::kPollStride * ApproxTupleBytes(arity_));
}

void GroupTable::Drain(std::vector<Piece>& pieces, unsigned threads) {
  // One partition at a time keeps its tables in cache while it drains.
  ParallelFor(threads, kPartitions, 1, [&](std::size_t begin, std::size_t end) {
    for (std::size_t p = begin; p < end; ++p) {
      Part& part = parts_[p];
      std::size_t incoming = 0;
      for (const Piece& piece : pieces) incoming += piece.hashes[p].size();
      if (distinct_) {
        part.seen.Reserve(part.n_rows + incoming);
        part.rows.reserve((part.n_rows + incoming) * arity_);
      }
      for (Piece& piece : pieces) {
        const std::vector<std::uint64_t>& hashes = piece.hashes[p];
        for (std::size_t i = 0; i < hashes.size(); ++i) {
          if (!Insert(part, piece.rows[p].data() + i * arity_, hashes[i])) {
            break;
          }
        }
        std::vector<Value>().swap(piece.rows[p]);
      }
    }
  });
  std::uint64_t charged = 0;
  for (const Piece& piece : pieces) {
    pushed_ += piece.pushed;
    charged += piece.charged;
  }
  if (ctx_ != nullptr) ctx_->Release(charged);
}

Status GroupTable::Flush() {
  rows_ = groups_ = 0;
  for (Part& part : parts_) {
    rows_ += part.n_rows;
    groups_ += part.groups.size() / (n_keys_ + 1);
    if (!part.status.ok()) return part.status;
    if (ctx_ != nullptr && part.uncharged > 0 &&
        !ctx_->Charge(std::exchange(part.uncharged, 0))) {
      return ctx_->Check();
    }
  }
  return ctx_ != nullptr ? ctx_->Check() : Status::Ok();
}

Relation GroupTable::Finish(Schema schema,
                            const std::function<bool(const Value&)>& keep,
                            bool with_aggregate) const {
  Relation out(std::move(schema));
  const std::size_t stride = n_keys_ + 1;
  for (const Part& part : parts_) {
    for (std::size_t r = 0; r < part.groups.size(); r += stride) {
      const Value* rec = &part.groups[r];
      if (keep != nullptr && !keep(rec[stride - 1])) continue;
      out.Add(Tuple(rec, rec + (with_aggregate ? stride : stride - 1)));
    }
  }
  // Group keys are unique, so the order is total and independent of the
  // partitioning.
  out.SortRows();
  return out;
}

Relation GroupAggregate(const Relation& rel,
                        const std::vector<std::string>& group_columns,
                        AggKind kind, const std::string& agg_column,
                        const std::string& output_column, unsigned threads,
                        OpMetrics* metrics, QueryContext* ctx) {
  // Rows stream in as (group columns..., aggregated column).
  std::vector<std::size_t> cols;
  for (const std::string& c : group_columns) {
    cols.push_back(rel.schema().IndexOfOrDie(c));
  }
  if (kind != AggKind::kCount) {
    cols.push_back(rel.schema().IndexOfOrDie(agg_column));
  }
  const std::size_t nk = group_columns.size();
  GroupTable table(cols.size(), nk, kind, nk, /*distinct=*/false, nullptr,
                   ctx);
  constexpr std::size_t kMorselRows = 2048;
  // A tripped context leaves a truncated table; the caller checks ctx.
  (void)table.Stream(threads, rel.size(), kMorselRows, metrics,
                     [&](std::size_t begin, std::size_t end, const auto& push) {
                       OpGovernor gov(ctx, 0);  // input-side polling only
                       Tuple row(cols.size());
                       for (std::size_t r = begin; r < end; ++r) {
                         for (std::size_t i = 0; i < cols.size(); ++i) {
                           row[i] = rel.rows()[r][cols[i]];
                         }
                         if (!gov.TickInput() || !push(row)) break;
                       }
                     });
  std::vector<std::string> out_columns = group_columns;
  out_columns.push_back(output_column);
  Relation out = table.Finish(Schema(std::move(out_columns)), nullptr,
                              /*with_aggregate=*/true);
  if (metrics != nullptr) {
    metrics->rows_in += rel.size();
    metrics->rows_out += out.size();
    // One table upsert per input row: slot counts would differ between
    // table layouts, and the metrics tree must be identical at every
    // thread count.
    metrics->tuples_probed += rel.size();
    metrics->mem_bytes += table.charged();
  }
  return out;
}

}  // namespace qf
