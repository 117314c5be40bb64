// Unit tests for the relational operators (project, select, joins, union,
// difference, group-aggregate) including set-semantics guarantees.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "relational/ops.h"

namespace qf {
namespace {

Relation MakeR(std::initializer_list<std::string> columns,
               std::initializer_list<Tuple> rows) {
  Relation r{Schema(std::vector<std::string>(columns))};
  for (const Tuple& t : rows) r.Add(t);
  return r;
}

TEST(OpsTest, ProjectDeduplicates) {
  Relation r = MakeR({"A", "B"}, {{Value(1), Value(10)},
                                  {Value(1), Value(20)},
                                  {Value(2), Value(30)}});
  Relation p = Project(r, {"A"});
  EXPECT_EQ(p.size(), 2u);
  EXPECT_TRUE(p.Contains({Value(1)}));
  EXPECT_TRUE(p.Contains({Value(2)}));
}

TEST(OpsTest, ProjectReorders) {
  Relation r = MakeR({"A", "B"}, {{Value(1), Value(2)}});
  Relation p = Project(r, {"B", "A"});
  EXPECT_EQ(p.schema(), Schema({"B", "A"}));
  EXPECT_TRUE(p.Contains({Value(2), Value(1)}));
}

TEST(OpsTest, SelectFilters) {
  Relation r = MakeR({"A"}, {{Value(1)}, {Value(2)}, {Value(3)}});
  Relation s = Select(r, [](const Tuple& t) { return t[0].AsInt() >= 2; });
  EXPECT_EQ(s.size(), 2u);
  EXPECT_FALSE(s.Contains({Value(1)}));
}

TEST(OpsTest, RenameKeepsRows) {
  Relation r = MakeR({"A"}, {{Value(1)}});
  Relation renamed = Rename(r, {"X"});
  EXPECT_EQ(renamed.schema(), Schema({"X"}));
  EXPECT_TRUE(renamed.Contains({Value(1)}));
}

TEST(OpsTest, NaturalJoinOnSharedColumn) {
  Relation a = MakeR({"BID", "Item"}, {{Value(1), Value("beer")},
                                       {Value(1), Value("chips")},
                                       {Value(2), Value("beer")}});
  Relation b = MakeR({"BID", "Store"}, {{Value(1), Value("north")},
                                        {Value(3), Value("south")}});
  Relation j = NaturalJoin(a, b, 1);
  EXPECT_EQ(j.schema(), Schema({"BID", "Item", "Store"}));
  EXPECT_EQ(j.size(), 2u);
  EXPECT_TRUE(j.Contains({Value(1), Value("beer"), Value("north")}));
  EXPECT_TRUE(j.Contains({Value(1), Value("chips"), Value("north")}));
}

TEST(OpsTest, NaturalJoinMultiKey) {
  Relation a = MakeR({"X", "Y"}, {{Value(1), Value(2)}, {Value(1), Value(3)}});
  Relation b = MakeR({"X", "Y"}, {{Value(1), Value(2)}});
  Relation j = NaturalJoin(a, b, 1);
  EXPECT_EQ(j.size(), 1u);
  EXPECT_EQ(j.arity(), 2u);
}

TEST(OpsTest, NaturalJoinNoSharedIsCrossProduct) {
  Relation a = MakeR({"A"}, {{Value(1)}, {Value(2)}});
  Relation b = MakeR({"B"}, {{Value(10)}, {Value(20)}});
  Relation j = NaturalJoin(a, b, 1);
  EXPECT_EQ(j.size(), 4u);
}

TEST(OpsTest, NaturalJoinEmptyInput) {
  Relation a = MakeR({"A"}, {});
  Relation b = MakeR({"A"}, {{Value(1)}});
  EXPECT_TRUE(NaturalJoin(a, b, 1).empty());
  EXPECT_TRUE(NaturalJoin(b, a, 1).empty());
}

TEST(OpsTest, SemiJoinKeepsMatching) {
  Relation a = MakeR({"A", "B"}, {{Value(1), Value(2)}, {Value(3), Value(4)}});
  Relation b = MakeR({"A"}, {{Value(1)}});
  Relation s = SemiJoin(a, b);
  EXPECT_EQ(s.size(), 1u);
  EXPECT_TRUE(s.Contains({Value(1), Value(2)}));
  EXPECT_EQ(s.schema(), a.schema());
}

TEST(OpsTest, SemiJoinNoSharedColumnsActsAsGuard) {
  Relation a = MakeR({"A"}, {{Value(1)}});
  Relation empty = MakeR({"B"}, {});
  Relation nonempty = MakeR({"B"}, {{Value(9)}});
  EXPECT_TRUE(SemiJoin(a, empty).empty());
  EXPECT_EQ(SemiJoin(a, nonempty).size(), 1u);
}

TEST(OpsTest, AntiJoinRemovesMatching) {
  // AntiJoin implements NOT subgoals: keep rows with no match.
  Relation a = MakeR({"D", "S"}, {{Value("flu"), Value("fever")},
                                  {Value("flu"), Value("rash")}});
  Relation causes = MakeR({"D", "S"}, {{Value("flu"), Value("fever")}});
  Relation kept = AntiJoin(a, causes);
  EXPECT_EQ(kept.size(), 1u);
  EXPECT_TRUE(kept.Contains({Value("flu"), Value("rash")}));
}

TEST(OpsTest, AntiJoinNoSharedColumnsActsAsGuard) {
  Relation a = MakeR({"A"}, {{Value(1)}});
  Relation empty = MakeR({"B"}, {});
  Relation nonempty = MakeR({"B"}, {{Value(9)}});
  EXPECT_EQ(AntiJoin(a, empty).size(), 1u);
  EXPECT_TRUE(AntiJoin(a, nonempty).empty());
}

TEST(OpsTest, AntiJoinPartialColumnOverlap) {
  Relation a = MakeR({"A", "B"}, {{Value(1), Value(2)}, {Value(3), Value(4)}});
  Relation b = MakeR({"B", "C"}, {{Value(2), Value(99)}});
  Relation kept = AntiJoin(a, b);
  EXPECT_EQ(kept.size(), 1u);
  EXPECT_TRUE(kept.Contains({Value(3), Value(4)}));
}

TEST(OpsTest, UnionDeduplicates) {
  Relation a = MakeR({"A"}, {{Value(1)}, {Value(2)}});
  Relation b = MakeR({"A"}, {{Value(2)}, {Value(3)}});
  Relation u = Union(a, b);
  EXPECT_EQ(u.size(), 3u);
}

TEST(OpsTest, DifferenceBasic) {
  Relation a = MakeR({"A"}, {{Value(1)}, {Value(2)}});
  Relation b = MakeR({"A"}, {{Value(2)}});
  Relation d = Difference(a, b);
  EXPECT_EQ(d.size(), 1u);
  EXPECT_TRUE(d.Contains({Value(1)}));
}

TEST(OpsTest, DistinctCopies) {
  Relation a = MakeR({"A"}, {{Value(1)}, {Value(1)}});
  Relation d = Distinct(a);
  EXPECT_EQ(d.size(), 1u);
  EXPECT_EQ(a.size(), 2u);  // input untouched
}

TEST(OpsTest, GroupCount) {
  Relation r = MakeR({"Item", "BID"}, {{Value("beer"), Value(1)},
                                       {Value("beer"), Value(2)},
                                       {Value("wine"), Value(1)}});
  Relation g = GroupAggregate(r, {"Item"}, AggKind::kCount, "", "n", 1);
  EXPECT_EQ(g.size(), 2u);
  EXPECT_TRUE(g.Contains({Value("beer"), Value(std::int64_t{2})}));
  EXPECT_TRUE(g.Contains({Value("wine"), Value(std::int64_t{1})}));
}

TEST(OpsTest, GroupSum) {
  Relation r = MakeR({"K", "W"}, {{Value("a"), Value(1.5)},
                                  {Value("a"), Value(2.5)},
                                  {Value("b"), Value(4.0)}});
  Relation g = GroupAggregate(r, {"K"}, AggKind::kSum, "W", "total", 1);
  EXPECT_TRUE(g.Contains({Value("a"), Value(4.0)}));
  EXPECT_TRUE(g.Contains({Value("b"), Value(4.0)}));
}

TEST(OpsTest, GroupMinMax) {
  Relation r = MakeR({"K", "V"}, {{Value("a"), Value(3)},
                                  {Value("a"), Value(1)},
                                  {Value("a"), Value(2)}});
  Relation lo = GroupAggregate(r, {"K"}, AggKind::kMin, "V", "m", 1);
  Relation hi = GroupAggregate(r, {"K"}, AggKind::kMax, "V", "m", 1);
  EXPECT_TRUE(lo.Contains({Value("a"), Value(1)}));
  EXPECT_TRUE(hi.Contains({Value("a"), Value(3)}));
}

TEST(OpsTest, GroupByMultipleColumns) {
  Relation r = MakeR({"A", "B", "C"}, {{Value(1), Value(1), Value(10)},
                                       {Value(1), Value(1), Value(20)},
                                       {Value(1), Value(2), Value(30)}});
  Relation g = GroupAggregate(r, {"A", "B"}, AggKind::kCount, "", "n", 1);
  EXPECT_EQ(g.size(), 2u);
  EXPECT_TRUE(g.Contains({Value(1), Value(1), Value(std::int64_t{2})}));
}

TEST(OpsTest, GroupByEmptyGroupColumnsAggregatesAll) {
  Relation r = MakeR({"V"}, {{Value(1)}, {Value(2)}});
  Relation g = GroupAggregate(r, {}, AggKind::kCount, "", "n", 1);
  ASSERT_EQ(g.size(), 1u);
  EXPECT_EQ(g.rows()[0][0], Value(std::int64_t{2}));
}

TEST(OpsTest, ParallelNaturalJoinPreservesSerialRowOrder) {
  // Regression: the parallel join must emit rows in *exactly* the serial
  // join's order (per-morsel buffers concatenated in morsel order), not
  // merely the same set. Build a probe side big enough to cross the
  // parallel threshold and span several morsels.
  Relation a{Schema({"X", "Y"})};
  for (int i = 0; i < 9000; ++i) {
    a.Add({Value(i), Value(i % 37)});
  }
  Relation b{Schema({"Y", "Z"})};
  for (int y = 0; y < 37; ++y) {
    b.Add({Value(y), Value(y * 10)});
    b.Add({Value(y), Value(y * 10 + 1)});
  }
  Relation serial = NaturalJoin(a, b, 1);
  ASSERT_GT(serial.size(), 0u);
  for (unsigned threads : {2u, 4u, 8u}) {
    Relation parallel = NaturalJoin(a, b, threads);
    EXPECT_EQ(serial.schema(), parallel.schema());
    // Exact vector equality: same rows, same order.
    EXPECT_EQ(serial.rows(), parallel.rows()) << "threads=" << threads;
  }
}

TEST(OpsTest, SerialGroupAggregateOutputIsSorted) {
  // Regression: the serial GroupAggregate used to emit rows in hash-table
  // order; it now sorts at every thread count, so one-piece and split
  // runs agree row-for-row and consumers see a deterministic order.
  Relation r = MakeR({"K", "V"}, {{Value("zebra"), Value(1)},
                                  {Value("ant"), Value(2)},
                                  {Value("mule"), Value(3)},
                                  {Value("ant"), Value(9)}});
  Relation serial = GroupAggregate(r, {"K"}, AggKind::kCount, "", "n", 1);
  ASSERT_EQ(serial.size(), 3u);
  std::vector<Tuple> rows = serial.rows();
  std::vector<Tuple> sorted = rows;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(rows, sorted);
  // And serial == parallel exactly, for every thread count.
  for (unsigned threads : {0u, 1u, 2u, 8u}) {
    Relation parallel =
        GroupAggregate(r, {"K"}, AggKind::kCount, "", "n", threads);
    EXPECT_EQ(serial.rows(), parallel.rows()) << "threads=" << threads;
  }
}

TEST(OpsTest, GroupAggregateEmptyInputEveryThreadCount) {
  // Regression: empty input must yield an empty relation with the output
  // schema intact (group columns + aggregate column), never a crash or a
  // phantom row, on the serial path and every parallel thread count.
  Relation empty{Schema({"K", "V"})};
  for (AggKind kind : {AggKind::kCount, AggKind::kSum, AggKind::kMin,
                       AggKind::kMax}) {
    std::string agg_col = kind == AggKind::kCount ? "" : "V";
    Relation serial = GroupAggregate(empty, {"K"}, kind, agg_col, "out", 1);
    EXPECT_TRUE(serial.empty());
    EXPECT_EQ(serial.schema(), Schema({"K", "out"}));
    for (unsigned threads : {0u, 1u, 2u, 8u}) {
      OpMetrics m;
      Relation parallel =
          GroupAggregate(empty, {"K"}, kind, agg_col, "out", threads, &m);
      EXPECT_TRUE(parallel.empty()) << "threads=" << threads;
      EXPECT_EQ(parallel.schema(), Schema({"K", "out"}));
      EXPECT_EQ(m.rows_in, 0u);
      EXPECT_EQ(m.rows_out, 0u);
    }
  }
}

TEST(OpsTest, ParallelNaturalJoinEmptyInputsEveryThreadCount) {
  // Regression: empty probe or build sides must short-circuit to an empty
  // result with the joined schema — identically for threads 0, 1, and
  // many, and without recording phantom probes in the metrics.
  Relation a = MakeR({"X", "Y"}, {{Value(1), Value(2)}});
  Relation empty_b{Schema({"Y", "Z"})};
  Relation empty_a{Schema({"X", "Y"})};
  for (unsigned threads : {0u, 1u, 2u, 8u}) {
    OpMetrics m1;
    Relation r1 = NaturalJoin(a, empty_b, threads, &m1);
    EXPECT_TRUE(r1.empty()) << "threads=" << threads;
    EXPECT_EQ(r1.schema(), Schema({"X", "Y", "Z"}));
    EXPECT_EQ(m1.tuples_probed, 0u);  // probe phase short-circuited
    EXPECT_EQ(m1.morsels, 0u);        // fallback path, no decomposition

    OpMetrics m2;
    Relation r2 = NaturalJoin(empty_a, empty_b, threads, &m2);
    EXPECT_TRUE(r2.empty()) << "threads=" << threads;
    EXPECT_EQ(m2.rows_in, 0u);
    EXPECT_EQ(m2.rows_out, 0u);
  }
}

TEST(OpsTest, ParallelNaturalJoinZeroAndOneThreadMatchSerialExactly) {
  // threads == 0 and threads == 1 are documented fallbacks to the serial
  // join: same rows, same order, same counters, morsels stays 0.
  Relation a{Schema({"X", "Y"})};
  for (int i = 0; i < 500; ++i) a.Add({Value(i), Value(i % 7)});
  Relation b{Schema({"Y", "Z"})};
  for (int y = 0; y < 7; ++y) b.Add({Value(y), Value(y * 100)});
  OpMetrics serial_m;
  Relation serial = NaturalJoin(a, b, 1, &serial_m);
  for (unsigned threads : {0u, 1u}) {
    OpMetrics m;
    Relation parallel = NaturalJoin(a, b, threads, &m);
    EXPECT_EQ(serial.rows(), parallel.rows()) << "threads=" << threads;
    EXPECT_EQ(m.rows_in, serial_m.rows_in);
    EXPECT_EQ(m.rows_in_right, serial_m.rows_in_right);
    EXPECT_EQ(m.rows_out, serial_m.rows_out);
    EXPECT_EQ(m.tuples_probed, serial_m.tuples_probed);
    EXPECT_EQ(m.morsels, 0u) << "threads=" << threads;
  }
  // At the single-piece boundary (4096-row probe morsels): 8191 probe
  // rows stay one piece at every thread count, 8192 split into two
  // morsels at threads >= 2 — same rows, order and counters as threads 1.
  for (int n : {8191, 8192}) {
    Relation big{Schema({"X", "Y"})};
    for (int i = 0; i < n; ++i) big.Add({Value(i), Value(i % 7)});
    OpMetrics one_m;
    Relation one = NaturalJoin(big, b, 1, &one_m);
    EXPECT_EQ(one_m.morsels, 0u);
    for (unsigned threads : {0u, 1u, 2u, 8u}) {
      OpMetrics m;
      Relation r = NaturalJoin(big, b, threads, &m);
      EXPECT_EQ(r.rows(), one.rows()) << "threads=" << threads << " n=" << n;
      EXPECT_EQ(m.rows_in, one_m.rows_in);
      EXPECT_EQ(m.rows_in_right, one_m.rows_in_right);
      EXPECT_EQ(m.rows_out, one_m.rows_out);
      EXPECT_EQ(m.tuples_probed, one_m.tuples_probed);
      EXPECT_EQ(m.morsels, threads >= 2 && n == 8192 ? 2u : 0u)
          << "threads=" << threads << " n=" << n;
    }
  }
}

}  // namespace
}  // namespace qf
