// Relational operators over set-semantics relations.
//
// Joins are *natural*: they match on equally named columns, which is exactly
// the shape conjunctive-query evaluation needs when each subgoal's binding
// relation names its columns after the query's variables and parameters.
//
// Observability: every operator the evaluators use takes a trailing
// nullable OpMetrics* (common/metrics.h). When non-null the operator adds
// its observed counters — rows_in (left/only input), rows_in_right (build
// side of binary ops), rows_out (exact result cardinality), tuples_probed
// (hash lookups + table upserts), morsels (the RunMorsels decomposition;
// 0 when the op ran as one piece) — into the node. Operators fill *counters
// only*; naming the node and timing it (ScopedOp) is the caller's job, so
// wall time has a single source. All row counters are identical for every
// thread count (the same determinism contract as the results themselves);
// `morsels` reflects the actual decomposition.
// A null pointer costs one branch — the disabled path stays
// allocation-free.
//
// Governance: the same operators take a trailing nullable QueryContext*
// (common/resource.h). When non-null the operator polls the context's
// deadline/cancel token every QueryContext::kPollStride rows (and at
// every morsel start when split) and charges ApproxTupleBytes per
// *output* row to the memory accountant, recording the charged bytes in
// metrics->mem_bytes. Once the context latches an error the operator
// bails out early with truncated output; callers must ctx->Check() after
// each operator and discard the truncated result. Governance never
// changes the rows of a run that completes — only whether it completes.
#ifndef QF_RELATIONAL_OPS_H_
#define QF_RELATIONAL_OPS_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/flat_hash.h"
#include "common/metrics.h"
#include "common/resource.h"
#include "common/thread_pool.h"
#include "relational/relation.h"

namespace qf {

// Projects onto `columns` (each must exist), removing duplicates.
Relation Project(const Relation& rel, const std::vector<std::string>& columns,
                 OpMetrics* metrics = nullptr, QueryContext* ctx = nullptr);

// Keeps rows satisfying `pred`. Preserves set-ness.
Relation Select(const Relation& rel,
                const std::function<bool(const Tuple&)>& pred,
                OpMetrics* metrics = nullptr, QueryContext* ctx = nullptr);

// Renames columns: new_names.size() must equal arity. Takes `rel` by
// value and moves its rows, so a caller passing std::move copies nothing.
Relation Rename(Relation rel, std::vector<std::string> new_names);

// Natural join: matches rows agreeing on all shared column names. Output
// schema is a's columns followed by b's non-shared columns. If the inputs
// share no columns this is a cross product. Inputs must be duplicate-free
// for the output to be duplicate-free.
//
// The probe side runs through RunMorsels (common/thread_pool.h) against
// one shared read-only hash index over `b`. Morsel boundaries depend only
// on the input size — never on `threads` — and the pieces concatenate in
// morsel order, so rows, row order and row counters are the same for
// every `threads` value. Fewer than 8,192 probe rows, `threads` <= 1
// (including 0) and cross products run as one piece (morsels stays 0).
Relation NaturalJoin(const Relation& a, const Relation& b, unsigned threads,
                     OpMetrics* metrics = nullptr, QueryContext* ctx = nullptr);

// Positions of the columns `a` and `b` share (by name), plus b's
// non-shared columns.
struct JoinLayout {
  std::vector<std::size_t> a_key;
  std::vector<std::size_t> b_key;
  std::vector<std::size_t> b_rest;
};

// The build side of a natural join and its probe loop: `b`'s rows indexed
// on the columns `b` shares with `a`. NaturalJoin materializes the pairs
// the loop emits; the flock evaluator's streamed final join
// (flocks/cq_eval.cc) filters, projects and aggregates them in place.
// Read-only once built, so morsels share one index. Both relations must
// outlive it.
class JoinIndex {
 public:
  JoinIndex(const Relation& a, const Relation& b);

  // a's columns, then b's columns that a lacks.
  Schema JoinedSchema() const;
  // True when the inputs share no column (a cross product).
  bool cross() const { return layout_.a_key.empty(); }
  // Hash-slot probes spent building the index.
  std::uint64_t build_probes() const { return build_probes_; }

  // Calls emit(ta, tb) for every matching pair whose `ta` is one of
  // a.rows()[begin, end): a's row order, then build order. Ticks `gov`
  // once per a row; stops when it trips or when emit returns false.
  template <typename Emit>
  void ProbeRange(std::size_t begin, std::size_t end, OpGovernor& gov,
                  std::uint64_t& probes, const Emit& emit) const {
    KeyCols a_cols(layout_.a_key, a_.arity());
    KeyCols b_cols(layout_.b_key, b_.arity());
    for (std::size_t r = begin; r < end; ++r) {
      if (!gov.TickInput()) return;
      const Tuple& ta = a_.rows()[r];
      FlatKeyIndex::Span span = index_.Probe(
          a_cols.Hash(ta),
          [&](std::uint32_t rb) {
            return a_cols.EqAcross(ta, b_cols, b_.rows()[rb]);
          },
          probes);
      for (const std::uint32_t* p = span.begin; p != span.end; ++p) {
        if (!emit(ta, b_.rows()[*p])) return;
      }
    }
  }

 private:
  const Relation& a_;
  const Relation& b_;
  JoinLayout layout_;
  FlatKeyIndex index_;
  std::uint64_t build_probes_ = 0;
};

// One piece of a row-emitting morsel kernel (the join above, the subgoal
// scan of flocks/cq_eval.cc): its rows, hash-slot probes and the bytes
// its governor charged.
struct RowPiece {
  std::vector<Tuple> rows;
  std::uint64_t probes = 0;
  std::uint64_t bytes = 0;
};

// Concatenates pieces in morsel order and sums their counters. A single
// piece is returned as-is.
RowPiece ConcatPieces(std::vector<RowPiece> pieces);

// Rows of `a` with at least one match in `b` on the shared columns.
// If no columns are shared: returns `a` when `b` is non-empty, else empty.
Relation SemiJoin(const Relation& a, const Relation& b,
                  OpMetrics* metrics = nullptr, QueryContext* ctx = nullptr);

// Rows of `a` with *no* match in `b` on the shared columns — evaluates
// NOT-subgoals. If no columns are shared: returns `a` when `b` is empty,
// else empty.
Relation AntiJoin(const Relation& a, const Relation& b,
                  OpMetrics* metrics = nullptr, QueryContext* ctx = nullptr);

// Set union; schemas must have equal arity (column names taken from `a`).
Relation Union(const Relation& a, const Relation& b,
               OpMetrics* metrics = nullptr, QueryContext* ctx = nullptr);

// Set difference a - b; arities must match (names from `a`).
Relation Difference(const Relation& a, const Relation& b);

// Removes duplicates (copy of Relation::Dedup that leaves input intact).
Relation Distinct(const Relation& rel);

// Aggregation kinds for GroupAggregate. All but kCount read `agg_column`.
enum class AggKind { kCount, kSum, kMin, kMax };

// The in-memory group-by sink: rows are pushed in one at a time, fused
// distinct -> group -> aggregate, and Finish() builds rows only for the
// groups whose aggregate passes a filter. It is GroupAggregate's kernel
// and the sink the flock evaluator streams its final join into (the
// other sink is SpillGroupSink, relational/spill.h, under a spill grant).
//
// Rows live in kPartitions partitions picked by group-key hash, so a
// group, and every copy of a row, is whole inside one partition. In
// Stream() each piece of the input buffers its rows by partition; the
// partitions then drain one at a time per worker, so a partition's
// tables stay in cache, each taking the pieces in morsel order. Every
// partition sees its rows in input order, so groups, per-group
// accumulation order (float SUM association included) and the counters
// below are the same at every thread count. Push() inserts one row
// directly, for serial producers and budgeted one-piece streams.
//
// Governance: distinct rows and groups held are charged to `ctx`
// (ApproxTupleBytes each); morsel buffers are charged while they live.
// Buffering costs memory but pays without a budget: draining one
// partition at a time inserted about 1.5x faster per row than pushing
// row by row across all 32 partitions, on 68k-200k distinct rows.
class GroupTable {
 public:
  static constexpr std::size_t kPartitions = 32;

  // Pushed rows have `arity` columns, the first `n_keys` of them the
  // group key; non-COUNT kinds read column `agg`. With `distinct`,
  // copies of a row count once (set semantics over what is pushed), and
  // `check` (nullable) sees each distinct row's `agg` value before it is
  // aggregated: its error stops the table.
  GroupTable(std::size_t arity, std::size_t n_keys, AggKind kind,
             std::size_t agg, bool distinct,
             std::function<Status(const Value&)> check = nullptr,
             QueryContext* ctx = nullptr);
  ~GroupTable();
  GroupTable(const GroupTable&) = delete;
  GroupTable& operator=(const GroupTable&) = delete;

  // Rows one morsel pushed, buffered by partition until the drain.
  struct Piece {
    std::vector<Value> rows[kPartitions];  // `arity` values per row
    std::vector<std::uint64_t> hashes[kPartitions];  // group-key hashes
    std::uint64_t pushed = 0;
    std::uint64_t charged = 0;
  };

  // Feeds input positions [0, n) through body(begin, end, push), where
  // push(const Tuple&) takes one row and returns false once the table
  // has failed. The split follows RunMorsels(threads, n, morsel, ctx,
  // metrics). Under a memory budget a one-piece stream pushes its rows
  // straight into the table, so the budget sees only the rows and groups
  // the table keeps; otherwise every piece buffers for the drain. Returns
  // the table's first error (the context's included).
  template <typename Body>
  Status Stream(unsigned threads, std::size_t n, std::size_t morsel,
                OpMetrics* metrics, const Body& body) {
    const bool budgeted = ctx_ != nullptr && ctx_->budget_bytes() != 0;
    std::vector<Piece> pieces = RunMorsels<Piece>(
        threads, n, morsel, ctx_, metrics,
        [&](std::size_t begin, std::size_t end, Piece& piece) {
          if (budgeted && begin == 0 && end == n) {
            body(begin, end, [&](const Tuple& row) { return Push(row); });
          } else {
            body(begin, end,
                 [&](const Tuple& row) { return Buffer(piece, row); });
          }
        });
    Drain(pieces, threads);
    return Flush();
  }

  // Pushes one row on the caller's thread; false once the table failed.
  // After the last Push, Flush() charges what the table held back and
  // returns its first error.
  bool Push(const Tuple& row);
  Status Flush();

  // Counts as of the last Stream or Flush: rows pushed, rows aggregated
  // (distinct rows with `distinct`, else every row), groups, and the
  // bytes charged for the rows and groups held (buffers excluded).
  std::uint64_t pushed() const { return pushed_; }
  std::uint64_t rows() const { return rows_; }
  std::size_t groups() const { return groups_; }
  std::uint64_t charged() const {
    return (distinct_ ? rows_ * ApproxTupleBytes(arity_) : 0) +
           groups_ * ApproxTupleBytes(n_keys_ + 1);
  }

  // One row per group whose aggregate passes `keep` (every group when
  // null): the key columns, then the aggregate when `with_aggregate`,
  // sorted lexicographically.
  Relation Finish(Schema schema, const std::function<bool(const Value&)>& keep,
                  bool with_aggregate) const;

 private:
  struct Part;

  std::uint64_t KeyHash(const Value* row) const;
  bool Insert(Part& part, const Value* row, std::uint64_t key_hash);
  bool Buffer(Piece& piece, const Tuple& row);
  void Drain(std::vector<Piece>& pieces, unsigned threads);

  std::size_t arity_;
  std::size_t n_keys_;
  AggKind kind_;
  std::size_t agg_;
  bool distinct_;
  std::function<Status(const Value&)> check_;
  QueryContext* ctx_;
  std::vector<Part> parts_;
  std::uint64_t pushed_ = 0;
  std::uint64_t rows_ = 0;
  std::size_t groups_ = 0;
};

// Groups `rel` by `group_columns` and computes one aggregate per group over
// the remaining data:
//   kCount — number of (distinct) rows in the group;
//   kSum / kMin / kMax — over the numeric column `agg_column`.
// Output schema: group_columns + {output_column}, rows in lexicographic
// order. Input must be duplicate-free: under set semantics COUNT of a
// flock's answers is exactly the number of distinct rows per group.
//
// Rows stream into a GroupTable in 2,048-row morsels (one piece under
// 4,096 rows or at `threads` <= 1), and the final sort pins the row
// order. Every `threads` value computes bit-identical aggregates,
// floating-point SUM included.
Relation GroupAggregate(const Relation& rel,
                        const std::vector<std::string>& group_columns,
                        AggKind kind, const std::string& agg_column,
                        const std::string& output_column, unsigned threads,
                        OpMetrics* metrics = nullptr,
                        QueryContext* ctx = nullptr);

}  // namespace qf

#endif  // QF_RELATIONAL_OPS_H_
