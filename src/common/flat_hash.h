// Cache-conscious flat hash tables — the execution kernels under every
// hot path of the engine (hash join build/probe, set-semantics dedup,
// semi/anti join, group aggregation, a-priori candidate counting).
//
// Design:
//   * Open addressing over one flat slot array; power-of-two capacity;
//     linear probing. No per-entry allocation, no node pointers — a probe
//     touches consecutive cache lines instead of chasing list nodes.
//   * Each slot stores the element's precomputed 64-bit hash inline next
//     to a dense 32-bit id. Probes compare hashes first and call the
//     caller's equality predicate only on a full 64-bit hash match, so
//     almost every miss is resolved without touching the keyed data.
//   * Growth doubles the slot array and redistributes occupied slots by
//     their *stored* hashes — keys are never re-hashed ("rehash-free
//     doubling"), so growth cost is a linear pass over the slot array.
//   * Keys live with the *caller* (rows of a Relation, candidate vectors,
//     packed integers). The tables store only ids/refs and hashes, and
//     every lookup takes an equality closure over the stored id. This is
//     what makes probing *heterogeneous*: a join probe hashes the key
//     columns of the probe row in place and compares column-by-column
//     against the build row — no key tuple is ever materialized.
//   * Dense ids are assigned in insertion order, so iterating 0..size-1
//     replays insertions deterministically — hash-table iteration order
//     never leaks into results (the engine's determinism contract).
//   * Every probing call accumulates the number of slots it inspected
//     into a caller-owned counter; operators surface the sum as the
//     `tuples_probed` metric.
//
// The family:
//   FlatIdTable   — hash -> dense id (the core; keys fully caller-side).
//   FlatTupleSet  — set-semantics dedup: insert-if-absent over refs.
//   FlatKeyIndex  — join build side: key -> span of row ids (build order).
#ifndef QF_COMMON_FLAT_HASH_H_
#define QF_COMMON_FLAT_HASH_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace qf {

class FlatIdTable {
 public:
  static constexpr std::uint32_t kNone = 0xFFFFFFFFu;

  FlatIdTable() = default;

  // Prepares capacity for `n` distinct elements (inserts beyond that
  // still work; the table doubles as needed).
  void Reserve(std::size_t n);

  std::size_t size() const { return hashes_.size(); }
  bool empty() const { return hashes_.empty(); }
  // Slots currently allocated (diagnostics/tests).
  std::size_t capacity() const { return slots_.size(); }

  // Stored hash of a dense id (for merge passes: partial tables hand
  // their hashes to the global table without re-hashing any key).
  std::uint64_t hash_at(std::uint32_t id) const { return hashes_[id]; }

  // Finds the dense id whose stored hash equals `hash` and whose element
  // satisfies `eq(id)`, inserting a fresh id (== size() before the call)
  // when absent. Returns {id, inserted}. `probes` accumulates the number
  // of slots inspected.
  template <typename Eq>
  std::pair<std::uint32_t, bool> Upsert(std::uint64_t hash, const Eq& eq,
                                        std::uint64_t& probes) {
    if (NeedsGrowth()) Grow();
    std::size_t mask = slots_.size() - 1;
    std::size_t i = static_cast<std::size_t>(hash) & mask;
    while (true) {
      ++probes;
      Slot& slot = slots_[i];
      if (slot.id == kNone) {
        std::uint32_t id = static_cast<std::uint32_t>(hashes_.size());
        slot.hash = hash;
        slot.id = id;
        hashes_.push_back(hash);
        return {id, true};
      }
      if (slot.hash == hash && eq(slot.id)) return {slot.id, false};
      i = (i + 1) & mask;
    }
  }

  // As Upsert without the insert: returns the matching id or kNone.
  template <typename Eq>
  std::uint32_t Find(std::uint64_t hash, const Eq& eq,
                     std::uint64_t& probes) const {
    if (slots_.empty()) return kNone;
    std::size_t mask = slots_.size() - 1;
    std::size_t i = static_cast<std::size_t>(hash) & mask;
    while (true) {
      ++probes;
      const Slot& slot = slots_[i];
      if (slot.id == kNone) return kNone;
      if (slot.hash == hash && eq(slot.id)) return slot.id;
      i = (i + 1) & mask;
    }
  }

 private:
  struct Slot {
    std::uint64_t hash = 0;
    std::uint32_t id = kNone;  // kNone marks an empty slot
  };

  bool NeedsGrowth() const {
    // Grow at 3/4 load — linear probing stays short-chained below that.
    return slots_.empty() ||
           (hashes_.size() + 1) * 4 > slots_.size() * 3;
  }
  void Grow();
  void Redistribute(std::size_t new_capacity);

  std::vector<Slot> slots_;
  std::vector<std::uint64_t> hashes_;  // dense: id -> stored hash
};

// Set-semantics dedup over caller-side elements named by 32-bit refs
// (typically row indices). Refs of the distinct elements are kept in
// insertion order, which is exactly first-occurrence order.
class FlatTupleSet {
 public:
  void Reserve(std::size_t n) {
    table_.Reserve(n);
    refs_.reserve(n);
  }
  std::size_t size() const { return refs_.size(); }

  // Inserts `ref` unless an equal element is present; `eq(stored_ref)`
  // compares the probe element against a previously inserted one.
  // Returns true when `ref` was new.
  template <typename Eq>
  bool Insert(std::uint32_t ref, std::uint64_t hash, const Eq& eq,
              std::uint64_t& probes) {
    auto [id, inserted] =
        table_.Upsert(hash, [&](std::uint32_t i) { return eq(refs_[i]); },
                      probes);
    if (inserted) refs_.push_back(ref);
    return inserted;
  }

  template <typename Eq>
  bool Contains(std::uint64_t hash, const Eq& eq,
                std::uint64_t& probes) const {
    return table_.Find(hash, [&](std::uint32_t i) { return eq(refs_[i]); },
                       probes) != FlatIdTable::kNone;
  }

  // Refs of the distinct elements, first-occurrence order.
  const std::vector<std::uint32_t>& refs() const { return refs_; }

 private:
  FlatIdTable table_;
  std::vector<std::uint32_t> refs_;
};

// Hash-join build side: key -> the row ids carrying that key, as a
// contiguous span in build-insertion order. Build protocol:
//   index.Reserve(n);
//   for each row r: index.AddRow(r, hash, eq, probes);
//   index.Finalize();
// after which Probe() is read-only and safe to share across threads.
class FlatKeyIndex {
 public:
  struct Span {
    const std::uint32_t* begin = nullptr;
    const std::uint32_t* end = nullptr;
    std::size_t size() const { return static_cast<std::size_t>(end - begin); }
    bool empty() const { return begin == end; }
  };

  void Reserve(std::size_t n);

  // `eq(stored_row)` compares the key of `row` against the key of a
  // previously added row.
  template <typename Eq>
  void AddRow(std::uint32_t row, std::uint64_t hash, const Eq& eq,
              std::uint64_t& probes) {
    auto [group, inserted] = groups_.Upsert(
        hash, [&](std::uint32_t g) { return eq(first_rows_[g]); }, probes);
    if (inserted) {
      first_rows_.push_back(row);
      counts_.push_back(1);
    } else {
      ++counts_[group];
    }
    added_rows_.push_back(row);
    group_of_row_.push_back(group);
  }

  // Converts the per-group chains into contiguous spans. Must be called
  // once, after the last AddRow and before the first Probe.
  void Finalize();

  // Rows whose key matches the probe key (empty span when none).
  // `eq(stored_row)` compares the probe key against a build row's key —
  // this is the heterogeneous hook: hash/compare the probe row's key
  // columns in place.
  template <typename Eq>
  Span Probe(std::uint64_t hash, const Eq& eq, std::uint64_t& probes) const {
    std::uint32_t group = groups_.Find(
        hash, [&](std::uint32_t g) { return eq(first_rows_[g]); }, probes);
    if (group == FlatIdTable::kNone) return Span{};
    const std::uint32_t* base = rows_.data();
    return Span{base + offsets_[group], base + offsets_[group + 1]};
  }

  std::size_t group_count() const { return groups_.size(); }
  // Valid before and after Finalize (exactly one of the vectors is live).
  std::size_t row_count() const { return added_rows_.size() + rows_.size(); }

 private:
  FlatIdTable groups_;                       // key hash -> group
  std::vector<std::uint32_t> first_rows_;    // group -> its first row
  std::vector<std::uint32_t> counts_;        // rows per group (build phase)
  std::vector<std::uint32_t> added_rows_;    // rows in AddRow order
  std::vector<std::uint32_t> group_of_row_;  // group of each added row
  std::vector<std::uint32_t> offsets_;       // group -> rows_ offset
  std::vector<std::uint32_t> rows_;          // row ids, grouped, build order
};

}  // namespace qf

#endif  // QF_COMMON_FLAT_HASH_H_
