// Differential and adversarial coverage for the flat-hash kernel family
// (common/flat_hash.h) and the relational operators rewired on top of it.
// Every kernel is pitted against the old std::unordered_* implementation
// it replaced: identical rows, identical order, on random relations and
// on the edge cases open addressing gets wrong first (empty input, one
// row, duplicate-heavy keys, and all-colliding hashes).
#include "common/flat_hash.h"

#include <algorithm>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "relational/ops.h"
#include "relational/relation.h"
#include "relational/tuple.h"

namespace qf {
namespace {

std::uint64_t IdentityHash(std::uint64_t v) { return v; }

TEST(FlatIdTable, AssignsDenseIdsInInsertionOrder) {
  FlatIdTable table;
  std::vector<std::uint64_t> keys = {17, 3, 99, 3, 17, 42};
  std::vector<std::uint64_t> stored;
  std::uint64_t probes = 0;
  auto eq_key = [&](std::uint64_t key) {
    return [&stored, key](std::uint32_t id) { return stored[id] == key; };
  };
  std::vector<std::uint32_t> ids;
  for (std::uint64_t key : keys) {
    auto [id, inserted] = table.Upsert(IdentityHash(key), eq_key(key), probes);
    if (inserted) stored.push_back(key);
    ids.push_back(id);
  }
  EXPECT_EQ(table.size(), 4u);
  EXPECT_EQ(stored, (std::vector<std::uint64_t>{17, 3, 99, 42}));
  EXPECT_EQ(ids, (std::vector<std::uint32_t>{0, 1, 2, 1, 0, 3}));
  EXPECT_GE(probes, keys.size());  // every upsert inspects >= 1 slot

  std::uint64_t find_probes = 0;
  EXPECT_EQ(table.Find(IdentityHash(99), eq_key(99), find_probes), 2u);
  EXPECT_EQ(table.Find(IdentityHash(7), eq_key(7), find_probes),
            FlatIdTable::kNone);
}

TEST(FlatIdTable, FindOnEmptyTableIsNone) {
  FlatIdTable table;
  std::uint64_t probes = 0;
  EXPECT_EQ(table.Find(123, [](std::uint32_t) { return true; }, probes),
            FlatIdTable::kNone);
  EXPECT_EQ(probes, 0u);
  EXPECT_EQ(table.size(), 0u);
}

TEST(FlatIdTable, GrowthPreservesIdsAndStoredHashes) {
  FlatIdTable table;
  std::vector<std::uint64_t> stored;
  std::uint64_t probes = 0;
  constexpr std::uint64_t kN = 100000;
  for (std::uint64_t v = 0; v < kN; ++v) {
    std::uint64_t h = v * 0x9e3779b97f4a7c15ull;  // scramble, no collisions
    auto [id, inserted] = table.Upsert(
        h, [&](std::uint32_t i) { return stored[i] == v; }, probes);
    ASSERT_TRUE(inserted);
    ASSERT_EQ(id, v);
    stored.push_back(v);
  }
  EXPECT_EQ(table.size(), kN);
  // Power-of-two capacity below 3/4 load.
  EXPECT_EQ(table.capacity() & (table.capacity() - 1), 0u);
  EXPECT_GE(table.capacity() * 3, table.size() * 4);
  // Every element survives the doublings with its id and stored hash.
  for (std::uint64_t v = 0; v < kN; ++v) {
    std::uint64_t h = v * 0x9e3779b97f4a7c15ull;
    ASSERT_EQ(table.Find(
                  h, [&](std::uint32_t i) { return stored[i] == v; }, probes),
              v);
    ASSERT_EQ(table.hash_at(static_cast<std::uint32_t>(v)), h);
  }
}

TEST(FlatIdTable, AllCollidingHashesStayCorrectAcrossGrowth) {
  // Adversarial input: every element hashes to the same value, so probing
  // degenerates to a linear scan and growth must redistribute a single
  // giant run without losing anyone.
  FlatIdTable table;
  std::vector<int> stored;
  std::uint64_t probes = 0;
  constexpr int kN = 3000;
  for (int v = 0; v < kN; ++v) {
    auto [id, inserted] = table.Upsert(
        42, [&](std::uint32_t i) { return stored[i] == v; }, probes);
    ASSERT_TRUE(inserted);
    ASSERT_EQ(id, static_cast<std::uint32_t>(v));
    stored.push_back(v);
  }
  // Re-upserting every element must find it, never insert.
  for (int v = 0; v < kN; ++v) {
    auto [id, inserted] = table.Upsert(
        42, [&](std::uint32_t i) { return stored[i] == v; }, probes);
    ASSERT_FALSE(inserted);
    ASSERT_EQ(id, static_cast<std::uint32_t>(v));
  }
  std::uint64_t miss_probes = 0;
  EXPECT_EQ(table.Find(42, [&](std::uint32_t i) { return stored[i] == -1; },
                       miss_probes),
            FlatIdTable::kNone);
  // The miss walked the entire collision run before the empty slot.
  EXPECT_GE(miss_probes, static_cast<std::uint64_t>(kN));
}

TEST(FlatTupleSet, MatchesUnorderedSetOnRandomInput) {
  Rng rng(7);
  std::vector<std::uint64_t> values;
  for (int i = 0; i < 20000; ++i) {
    values.push_back(rng.NextBelow(500));  // duplicate-heavy
  }
  FlatTupleSet set;
  std::uint64_t probes = 0;
  std::unordered_set<std::uint64_t> oracle;
  std::vector<std::uint32_t> expected_refs;
  for (std::size_t r = 0; r < values.size(); ++r) {
    std::uint64_t v = values[r];
    bool fresh = set.Insert(
        static_cast<std::uint32_t>(r), IdentityHash(v),
        [&](std::uint32_t prev) { return values[prev] == v; }, probes);
    ASSERT_EQ(fresh, oracle.insert(v).second);
    if (fresh) expected_refs.push_back(static_cast<std::uint32_t>(r));
  }
  EXPECT_EQ(set.size(), oracle.size());
  // Refs come back in first-occurrence order.
  EXPECT_EQ(set.refs(), expected_refs);
  for (std::uint64_t v = 0; v < 600; ++v) {
    ASSERT_EQ(set.Contains(IdentityHash(v),
                           [&](std::uint32_t prev) { return values[prev] == v; },
                           probes),
              oracle.contains(v));
  }
}

TEST(FlatKeyIndex, SpansMatchUnorderedMapChainsInBuildOrder) {
  Rng rng(13);
  std::vector<std::uint64_t> keys;
  for (int i = 0; i < 8000; ++i) keys.push_back(rng.NextBelow(300));
  FlatKeyIndex index;
  index.Reserve(keys.size());
  std::uint64_t probes = 0;
  std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> oracle;
  for (std::size_t r = 0; r < keys.size(); ++r) {
    std::uint64_t k = keys[r];
    index.AddRow(static_cast<std::uint32_t>(r), IdentityHash(k),
                 [&](std::uint32_t prev) { return keys[prev] == k; }, probes);
    oracle[k].push_back(static_cast<std::uint32_t>(r));
  }
  index.Finalize();
  ASSERT_EQ(index.group_count(), oracle.size());
  ASSERT_EQ(index.row_count(), keys.size());
  for (std::uint64_t k = 0; k < 350; ++k) {
    FlatKeyIndex::Span span = index.Probe(
        IdentityHash(k), [&](std::uint32_t prev) { return keys[prev] == k; },
        probes);
    auto it = oracle.find(k);
    if (it == oracle.end()) {
      ASSERT_TRUE(span.empty());
      continue;
    }
    // Same rows, in build-insertion order — the join determinism contract.
    ASSERT_EQ(std::vector<std::uint32_t>(span.begin, span.end), it->second);
  }
}

TEST(FlatKeyIndex, EmptyAndSingleRowEdges) {
  {
    FlatKeyIndex empty;
    empty.Finalize();
    EXPECT_EQ(empty.group_count(), 0u);
    EXPECT_EQ(empty.row_count(), 0u);
  }
  FlatKeyIndex one;
  std::uint64_t probes = 0;
  one.AddRow(0, 99, [](std::uint32_t) { return true; }, probes);
  one.Finalize();
  EXPECT_EQ(one.group_count(), 1u);
  FlatKeyIndex::Span hit =
      one.Probe(99, [](std::uint32_t) { return true; }, probes);
  ASSERT_EQ(hit.size(), 1u);
  EXPECT_EQ(*hit.begin, 0u);
  EXPECT_TRUE(
      one.Probe(100, [](std::uint32_t) { return true; }, probes).empty());
}

TEST(FlatKeyIndex, AllCollidingHashesKeepGroupsApart) {
  // Same stored hash everywhere; groups must still separate through eq.
  FlatKeyIndex index;
  std::vector<int> keys;
  std::uint64_t probes = 0;
  for (int r = 0; r < 900; ++r) {
    int k = r % 3;
    keys.push_back(k);
    index.AddRow(static_cast<std::uint32_t>(r), 7,
                 [&](std::uint32_t prev) { return keys[prev] == k; }, probes);
  }
  index.Finalize();
  ASSERT_EQ(index.group_count(), 3u);
  for (int k = 0; k < 3; ++k) {
    FlatKeyIndex::Span span = index.Probe(
        7, [&](std::uint32_t prev) { return keys[prev] == k; }, probes);
    ASSERT_EQ(span.size(), 300u);
    for (const std::uint32_t* p = span.begin; p != span.end; ++p) {
      ASSERT_EQ(static_cast<int>(*p % 3), k);
    }
    // Build order within the group.
    ASSERT_TRUE(std::is_sorted(span.begin, span.end));
  }
}

// ---------------------------------------------------------------------------
// Old-kernel oracles: the exact std::unordered_* implementations the
// operators used before the flat-hash rewiring, kept here as differential
// references. Output row ORDER matters as much as content.

using RowIndex = std::unordered_map<Tuple, std::vector<std::size_t>, TupleHash>;

Relation RandomRelation(Rng& rng, const std::vector<std::string>& cols,
                        std::size_t rows, std::uint32_t domain) {
  Relation rel{Schema(cols)};
  for (std::size_t r = 0; r < rows; ++r) {
    Tuple t;
    for (std::size_t c = 0; c < cols.size(); ++c) {
      if (rng.NextBelow(4) == 0) {
        std::string name("s");
        name += std::to_string(rng.NextBelow(domain));
        t.push_back(Value(name));
      } else {
        t.push_back(Value(static_cast<std::int64_t>(rng.NextBelow(domain))));
      }
    }
    rel.Add(std::move(t));
  }
  return rel;
}

Relation OldNaturalJoin(const Relation& a, const Relation& b) {
  // Recompute the join layout by shared column names, as ops.cc does.
  std::vector<std::size_t> a_key, b_key, b_rest;
  for (std::size_t j = 0; j < b.arity(); ++j) {
    std::optional<std::size_t> i = a.schema().IndexOf(b.schema().column(j));
    if (i.has_value()) {
      a_key.push_back(*i);
      b_key.push_back(j);
    } else {
      b_rest.push_back(j);
    }
  }
  std::vector<std::string> columns = a.schema().columns();
  for (std::size_t j : b_rest) columns.push_back(b.schema().column(j));
  Relation out{Schema(std::move(columns))};
  if (a.empty() || b.empty()) return out;
  RowIndex index;
  for (std::size_t r = 0; r < b.size(); ++r) {
    index[ProjectTuple(b.rows()[r], b_key)].push_back(r);
  }
  for (const Tuple& ta : a.rows()) {
    auto it = index.find(ProjectTuple(ta, a_key));
    if (it == index.end()) continue;
    for (std::size_t rb : it->second) {
      Tuple combined = ta;
      for (std::size_t j : b_rest) combined.push_back(b.rows()[rb][j]);
      out.Add(std::move(combined));
    }
  }
  return out;
}

Relation OldProject(const Relation& rel,
                    const std::vector<std::string>& columns) {
  std::vector<std::size_t> indices;
  for (const std::string& c : columns) {
    indices.push_back(rel.schema().IndexOfOrDie(c));
  }
  Relation out{Schema(columns)};
  std::unordered_set<Tuple, TupleHash> seen;
  for (const Tuple& t : rel.rows()) {
    Tuple projected = ProjectTuple(t, indices);
    if (seen.insert(projected).second) out.Add(std::move(projected));
  }
  return out;
}

Relation OldUnion(const Relation& a, const Relation& b) {
  Relation out(a.schema());
  std::unordered_set<Tuple, TupleHash> seen;
  for (const Tuple& t : a.rows()) {
    if (seen.insert(t).second) out.Add(t);
  }
  for (const Tuple& t : b.rows()) {
    if (seen.insert(t).second) out.Add(t);
  }
  return out;
}

Relation OldDifference(const Relation& a, const Relation& b) {
  std::unordered_set<Tuple, TupleHash> exclude(b.rows().begin(),
                                               b.rows().end());
  Relation out(a.schema());
  for (const Tuple& t : a.rows()) {
    if (!exclude.contains(t)) out.Add(t);
  }
  return out;
}

Relation OldDedup(const Relation& rel) {
  Relation out = rel;
  std::unordered_set<Tuple, TupleHash> seen;
  std::vector<Tuple> unique;
  for (const Tuple& t : out.rows()) {
    if (seen.insert(t).second) unique.push_back(t);
  }
  out.mutable_rows() = std::move(unique);
  return out;
}

std::pair<Relation, Relation> OldSemiAnti(const Relation& a,
                                          const Relation& b) {
  std::vector<std::size_t> a_key, b_key;
  for (std::size_t j = 0; j < b.arity(); ++j) {
    std::optional<std::size_t> i = a.schema().IndexOf(b.schema().column(j));
    if (i.has_value()) {
      a_key.push_back(*i);
      b_key.push_back(j);
    }
  }
  Relation semi(a.schema()), anti(a.schema());
  std::unordered_set<Tuple, TupleHash> keys;
  for (const Tuple& tb : b.rows()) keys.insert(ProjectTuple(tb, b_key));
  for (const Tuple& ta : a.rows()) {
    if (keys.contains(ProjectTuple(ta, a_key))) {
      semi.Add(ta);
    } else {
      anti.Add(ta);
    }
  }
  return {std::move(semi), std::move(anti)};
}

class FlatVsOldKernels : public ::testing::TestWithParam<int> {
 protected:
  Rng rng_{static_cast<std::uint64_t>(GetParam()) * 7919 + 1};
};

TEST_P(FlatVsOldKernels, NaturalJoinRowsAndOrderMatchOldImplementation) {
  // Vary shapes: empty, single-row, duplicate-heavy, and plain random.
  const std::vector<std::pair<std::size_t, std::size_t>> shapes = {
      {0, 40}, {40, 0}, {1, 1}, {200, 1}, {300, 300}, {500, 120}};
  for (auto [na, nb] : shapes) {
    Relation a = RandomRelation(rng_, {"X", "Y"}, na, 12);  // heavy dup keys
    Relation b = RandomRelation(rng_, {"Y", "Z"}, nb, 12);
    Relation oracle = OldNaturalJoin(a, b);
    Relation flat = NaturalJoin(a, b, 1);
    ASSERT_EQ(flat.rows(), oracle.rows()) << "na=" << na << " nb=" << nb;
    // Cross-thread row identity: the shared-index parallel kernel agrees
    // with the old serial implementation at every thread count.
    for (unsigned threads : {0u, 1u, 2u, 3u, 8u}) {
      Relation par = NaturalJoin(a, b, threads);
      ASSERT_EQ(par.rows(), oracle.rows()) << "threads=" << threads;
    }
  }
}

TEST_P(FlatVsOldKernels, ParallelJoinAboveMorselThresholdMatchesOld) {
  // Big enough that NaturalJoin takes the morsel path (>= 2*4096 probe
  // rows) at threads >= 2 instead of running as one piece.
  Relation a = RandomRelation(rng_, {"K", "V"}, 10000, 64);
  Relation b = RandomRelation(rng_, {"K", "W"}, 3000, 64);
  Relation oracle = OldNaturalJoin(a, b);
  for (unsigned threads : {2u, 8u}) {
    Relation par = NaturalJoin(a, b, threads);
    ASSERT_EQ(par.rows(), oracle.rows());
  }
  // Re-run: the kernel is deterministic run-to-run, not just row-equal.
  Relation again = NaturalJoin(a, b, 8);
  ASSERT_EQ(again.rows(), oracle.rows());
}

TEST_P(FlatVsOldKernels, SemiAndAntiJoinMatchOldImplementation) {
  const std::vector<std::pair<std::size_t, std::size_t>> shapes = {
      {0, 30}, {30, 0}, {1, 1}, {400, 90}};
  for (auto [na, nb] : shapes) {
    Relation a = RandomRelation(rng_, {"X", "Y"}, na, 9);
    Relation b = RandomRelation(rng_, {"Y", "Z"}, nb, 9);
    auto [semi_oracle, anti_oracle] = OldSemiAnti(a, b);
    ASSERT_EQ(SemiJoin(a, b).rows(), semi_oracle.rows());
    ASSERT_EQ(AntiJoin(a, b).rows(), anti_oracle.rows());
  }
}

TEST_P(FlatVsOldKernels, ProjectUnionDifferenceDedupMatchOldImplementation) {
  for (std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{700}}) {
    Relation a = RandomRelation(rng_, {"X", "Y", "Z"}, n, 6);  // dup-heavy
    Relation b = RandomRelation(rng_, {"X", "Y", "Z"}, n / 2, 6);
    ASSERT_EQ(Project(a, {"Z", "X"}).rows(),
              OldProject(a, {"Z", "X"}).rows());
    // Identity projection exercises the whole-row fast path.
    ASSERT_EQ(Project(a, {"X", "Y", "Z"}).rows(),
              OldProject(a, {"X", "Y", "Z"}).rows());
    ASSERT_EQ(Union(a, b).rows(), OldUnion(a, b).rows());
    ASSERT_EQ(Difference(a, b).rows(), OldDifference(a, b).rows());
    ASSERT_EQ(Distinct(a).rows(), OldDedup(a).rows());
  }
}

TEST_P(FlatVsOldKernels, GroupAggregateMatchesOldForEveryAggKind) {
  Relation rel = RandomRelation(rng_, {"G", "H", "V"}, 900, 7);
  // Numeric aggregate column required for SUM/MIN/MAX.
  for (Tuple& t : rel.mutable_rows()) {
    t[2] = Value(static_cast<std::int64_t>(rng_.NextBelow(1000)));
  }
  for (AggKind kind :
       {AggKind::kCount, AggKind::kSum, AggKind::kMin, AggKind::kMax}) {
    // Old-implementation oracle: accumulate through an unordered_map,
    // then sort rows (GroupAggregate's contract at every thread count).
    std::unordered_map<Tuple, std::vector<std::int64_t>, TupleHash> groups;
    for (const Tuple& t : rel.rows()) {
      groups[ProjectTuple(t, {0, 1})].push_back(t[2].AsInt());
    }
    Relation expect{Schema({"G", "H", "out"})};
    for (auto& [key, vals] : groups) {
      Tuple row = key;
      switch (kind) {
        case AggKind::kCount:
          row.push_back(Value(static_cast<std::int64_t>(vals.size())));
          break;
        case AggKind::kSum: {
          double sum = 0;
          for (std::int64_t v : vals) sum += static_cast<double>(v);
          row.push_back(Value(sum));
          break;
        }
        case AggKind::kMin:
          row.push_back(Value(*std::min_element(vals.begin(), vals.end())));
          break;
        case AggKind::kMax:
          row.push_back(Value(*std::max_element(vals.begin(), vals.end())));
          break;
      }
      expect.Add(std::move(row));
    }
    expect.SortRows();
    Relation serial = GroupAggregate(rel, {"G", "H"}, kind, "V", "out", 1);
    ASSERT_EQ(serial.rows(), expect.rows());
    for (unsigned threads : {1u, 2u, 8u}) {
      Relation par = GroupAggregate(rel, {"G", "H"}, kind, "V", "out",
                                    threads);
      ASSERT_EQ(par.rows(), expect.rows()) << "threads=" << threads;
    }
  }
}

TEST_P(FlatVsOldKernels, WholeRowGroupingUsesIdentityPathCorrectly) {
  // Group columns == the whole row, in order: the shared identity fast
  // path must not change results.
  Relation rel = RandomRelation(rng_, {"A", "B"}, 500, 5);
  std::unordered_map<Tuple, std::int64_t, TupleHash> counts;
  for (const Tuple& t : rel.rows()) ++counts[t];
  Relation expect{Schema({"A", "B", "n"})};
  for (auto& [key, n] : counts) {
    Tuple row = key;
    row.push_back(Value(n));
    expect.Add(std::move(row));
  }
  expect.SortRows();
  ASSERT_EQ(GroupAggregate(rel, {"A", "B"}, AggKind::kCount, "", "n", 1).rows(),
            expect.rows());
  ASSERT_EQ(
      GroupAggregate(rel, {"A", "B"}, AggKind::kCount, "", "n", 4).rows(),
      expect.rows());
  // Dedup shares the identity path.
  ASSERT_EQ(Distinct(rel).rows(), OldDedup(rel).rows());
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlatVsOldKernels, ::testing::Range(0, 8));

}  // namespace
}  // namespace qf
