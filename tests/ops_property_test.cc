// Property tests for the relational operators: on random relations, each
// operator must agree with a brute-force reference implementation, and
// set-semantics invariants (no duplicate rows in any output) must hold.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "common/rng.h"
#include "relational/ops.h"

namespace qf {
namespace {

Relation RandomRelation(Rng& rng, std::vector<std::string> columns,
                        std::size_t rows, int domain) {
  Relation rel{Schema(std::move(columns))};
  for (std::size_t i = 0; i < rows; ++i) {
    Tuple t;
    for (std::size_t c = 0; c < rel.arity(); ++c) {
      t.push_back(Value(static_cast<std::int64_t>(
          rng.NextBelow(static_cast<std::uint32_t>(domain)))));
    }
    rel.Add(std::move(t));
  }
  rel.Dedup();
  return rel;
}

bool IsSet(const Relation& rel) {
  Relation copy = rel;
  copy.Dedup();
  return copy.size() == rel.size();
}

std::vector<Tuple> Sorted(const Relation& rel) {
  std::vector<Tuple> rows = rel.rows();
  std::sort(rows.begin(), rows.end());
  return rows;
}

// Exactly `n` distinct (X, Y) rows with random Y in [0, domain): the
// input sizes at the single-piece boundary (2 * morsel - 1 and
// 2 * morsel) must not shrink under dedup.
Relation SizedRelation(Rng& rng, std::size_t n, int domain) {
  Relation rel{Schema({"X", "Y"})};
  for (std::size_t i = 0; i < n; ++i) {
    rel.Add({Value(static_cast<std::int64_t>(i)),
             Value(static_cast<std::int64_t>(
                 rng.NextBelow(static_cast<std::uint32_t>(domain))))});
  }
  return rel;
}

// Row counters of a run against those of its one-piece (threads 1) run,
// and `morsels` against the decomposition RunMorsels must have chosen:
// 0 for one piece, MorselCount(n, morsel) when split.
void ExpectSameCounters(const OpMetrics& m, const OpMetrics& one,
                        unsigned threads, std::size_t n, std::size_t morsel) {
  EXPECT_EQ(m.rows_in, one.rows_in) << "threads=" << threads << " n=" << n;
  EXPECT_EQ(m.rows_in_right, one.rows_in_right) << "threads=" << threads;
  EXPECT_EQ(m.rows_out, one.rows_out) << "threads=" << threads;
  EXPECT_EQ(m.tuples_probed, one.tuples_probed) << "threads=" << threads;
  bool split = threads >= 2 && n >= 2 * morsel;
  EXPECT_EQ(m.morsels, split ? (n + morsel - 1) / morsel : 0u)
      << "threads=" << threads << " n=" << n;
}

// Reference natural join: nested loops over all row pairs.
Relation ReferenceNaturalJoin(const Relation& a, const Relation& b) {
  std::vector<std::size_t> a_key, b_key, b_rest;
  for (std::size_t j = 0; j < b.arity(); ++j) {
    auto i = a.schema().IndexOf(b.schema().column(j));
    if (i.has_value()) {
      a_key.push_back(*i);
      b_key.push_back(j);
    } else {
      b_rest.push_back(j);
    }
  }
  std::vector<std::string> columns = a.schema().columns();
  for (std::size_t j : b_rest) columns.push_back(b.schema().column(j));
  Relation out{Schema(columns)};
  for (const Tuple& ta : a.rows()) {
    for (const Tuple& tb : b.rows()) {
      bool match = true;
      for (std::size_t k = 0; k < a_key.size(); ++k) {
        if (!(ta[a_key[k]] == tb[b_key[k]])) {
          match = false;
          break;
        }
      }
      if (!match) continue;
      Tuple combined = ta;
      for (std::size_t j : b_rest) combined.push_back(tb[j]);
      out.Add(std::move(combined));
    }
  }
  return out;
}

class OpsProperty : public ::testing::TestWithParam<int> {
 protected:
  OpsProperty() : rng_(static_cast<std::uint64_t>(GetParam())) {}
  Rng rng_;
};

TEST_P(OpsProperty, NaturalJoinMatchesReference) {
  Relation a = RandomRelation(rng_, {"X", "Y"}, 40, 6);
  Relation b = RandomRelation(rng_, {"Y", "Z"}, 40, 6);
  Relation fast = NaturalJoin(a, b, 1);
  Relation reference = ReferenceNaturalJoin(a, b);
  EXPECT_EQ(Sorted(fast), Sorted(reference));
  EXPECT_TRUE(IsSet(fast));
}

TEST_P(OpsProperty, ParallelJoinMatchesSerial) {
  // Large enough to cross the parallel threshold with 2 workers.
  Relation a = RandomRelation(rng_, {"X", "Y"}, 10000, 400);
  Relation b = RandomRelation(rng_, {"Y", "Z"}, 3000, 400);
  Relation serial = NaturalJoin(a, b, 1);
  Relation parallel2 = NaturalJoin(a, b, 2);
  Relation parallel4 = NaturalJoin(a, b, 4);
  EXPECT_EQ(Sorted(serial), Sorted(parallel2));
  EXPECT_EQ(Sorted(serial), Sorted(parallel4));
  // Small inputs and a single thread run as one piece.
  Relation small = RandomRelation(rng_, {"X", "Y"}, 20, 5);
  EXPECT_EQ(Sorted(NaturalJoin(small, b, 1)),
            Sorted(NaturalJoin(small, b, 4)));
  EXPECT_EQ(Sorted(serial), Sorted(NaturalJoin(a, b, 1)));
}

TEST_P(OpsProperty, JoinIsCommutativeUpToColumnOrder) {
  Relation a = RandomRelation(rng_, {"X", "Y"}, 30, 5);
  Relation b = RandomRelation(rng_, {"Y", "Z"}, 30, 5);
  Relation ab = NaturalJoin(a, b, 1);
  Relation ba = NaturalJoin(b, a, 1);
  EXPECT_EQ(ab.size(), ba.size());
  Relation ba_reordered = Project(ba, ab.schema().columns());
  EXPECT_EQ(Sorted(ab), Sorted(ba_reordered));
}

TEST_P(OpsProperty, SemiAntiJoinPartitionInput) {
  Relation a = RandomRelation(rng_, {"X", "Y"}, 50, 6);
  Relation b = RandomRelation(rng_, {"Y", "W"}, 25, 6);
  Relation semi = SemiJoin(a, b);
  Relation anti = AntiJoin(a, b);
  // semi + anti = a, disjointly.
  EXPECT_EQ(semi.size() + anti.size(), a.size());
  EXPECT_EQ(Sorted(Union(semi, anti)), Sorted(a));
  for (const Tuple& t : semi.rows()) EXPECT_FALSE(anti.Contains(t));
}

TEST_P(OpsProperty, SemiJoinEqualsJoinProjection) {
  Relation a = RandomRelation(rng_, {"X", "Y"}, 40, 5);
  Relation b = RandomRelation(rng_, {"Y", "Z"}, 40, 5);
  Relation semi = SemiJoin(a, b);
  Relation via_join = Project(NaturalJoin(a, b, 1), a.schema().columns());
  EXPECT_EQ(Sorted(semi), Sorted(via_join));
}

TEST_P(OpsProperty, UnionDifferenceRoundTrip) {
  Relation a = RandomRelation(rng_, {"X"}, 30, 12);
  Relation b = RandomRelation(rng_, {"X"}, 30, 12);
  // (a ∪ b) - b = a - b; and a ⊆ a ∪ b.
  Relation u = Union(a, b);
  EXPECT_EQ(Sorted(Difference(u, b)), Sorted(Difference(a, b)));
  for (const Tuple& t : a.rows()) EXPECT_TRUE(u.Contains(t));
  EXPECT_TRUE(IsSet(u));
}

TEST_P(OpsProperty, GroupCountMatchesReference) {
  Relation a = RandomRelation(rng_, {"K", "V"}, 60, 6);
  Relation grouped = GroupAggregate(a, {"K"}, AggKind::kCount, "", "n", 1);
  std::map<Value, std::int64_t> reference;
  for (const Tuple& t : a.rows()) ++reference[t[0]];
  EXPECT_EQ(grouped.size(), reference.size());
  for (const Tuple& t : grouped.rows()) {
    EXPECT_EQ(t[1].AsInt(), reference[t[0]]);
  }
}

TEST_P(OpsProperty, GroupSumMatchesReference) {
  Relation a = RandomRelation(rng_, {"K", "V"}, 60, 6);
  Relation grouped = GroupAggregate(a, {"K"}, AggKind::kSum, "V", "s", 1);
  std::map<Value, double> reference;
  for (const Tuple& t : a.rows()) reference[t[0]] += t[1].AsNumber();
  for (const Tuple& t : grouped.rows()) {
    EXPECT_DOUBLE_EQ(t[1].AsNumber(), reference[t[0]]);
  }
}

TEST_P(OpsProperty, ParallelGroupAggregateMatchesSerial) {
  // Big enough to span many morsels. Split runs sort their output and
  // must be bit-identical across thread counts; the threads 1 (one-piece)
  // run must agree as a set.
  Relation a = RandomRelation(rng_, {"K", "V"}, 6000, 40);
  for (AggKind kind : {AggKind::kCount, AggKind::kSum, AggKind::kMin,
                       AggKind::kMax}) {
    std::string agg_col = kind == AggKind::kCount ? "" : "V";
    Relation serial = GroupAggregate(a, {"K"}, kind, agg_col, "agg", 1);
    Relation t1 = GroupAggregate(a, {"K"}, kind, agg_col, "agg", 1);
    Relation t2 = GroupAggregate(a, {"K"}, kind, agg_col, "agg", 2);
    Relation t8 = GroupAggregate(a, {"K"}, kind, agg_col, "agg", 8);
    EXPECT_EQ(Sorted(serial), Sorted(t1));
    // Exact rows-and-order identity between thread counts.
    EXPECT_EQ(t1.rows(), t2.rows());
    EXPECT_EQ(t1.rows(), t8.rows());
    EXPECT_TRUE(IsSet(t8));
  }
  // The single-piece boundary (2048-row morsels): 4095 rows run as one
  // piece at every thread count, 4096 split at threads >= 2. Integer
  // inputs, so every aggregate — SUM included — is exact either way.
  for (std::size_t n : {std::size_t{4095}, std::size_t{4096}}) {
    Relation sized = SizedRelation(rng_, n, 40);
    for (AggKind kind : {AggKind::kCount, AggKind::kSum, AggKind::kMin,
                         AggKind::kMax}) {
      std::string agg_col = kind == AggKind::kCount ? "" : "X";
      OpMetrics one_m;
      Relation one = GroupAggregate(sized, {"Y"}, kind, agg_col, "agg", 1,
                                    &one_m);
      for (unsigned threads : {0u, 1u, 2u, 8u}) {
        OpMetrics m;
        Relation g =
            GroupAggregate(sized, {"Y"}, kind, agg_col, "agg", threads, &m);
        EXPECT_EQ(g.rows(), one.rows()) << "threads=" << threads;
        ExpectSameCounters(m, one_m, threads, n, 2048);
      }
    }
  }
}

TEST_P(OpsProperty, ParallelGroupAggregateEmptyInput) {
  Relation empty{Schema({"K", "V"})};
  for (unsigned threads : {1u, 2u, 8u}) {
    Relation g = GroupAggregate(empty, {"K"}, AggKind::kCount, "", "n",
                                threads);
    EXPECT_TRUE(g.empty());
    EXPECT_EQ(g.schema(), Schema({"K", "n"}));
  }
}

TEST_P(OpsProperty, ParallelGroupAggregateAllOneGroup) {
  // A constant key: every morsel contributes a partial for the same
  // group, exercising the cross-morsel merge on one accumulator.
  Relation a{Schema({"K", "V"})};
  std::int64_t expected_sum = 0;
  for (int i = 0; i < 5000; ++i) {
    std::int64_t v = static_cast<std::int64_t>(rng_.NextBelow(100));
    // Keep V distinct per row so set semantics don't collapse rows.
    a.Add({Value(std::int64_t{1}), Value(v * 8192 + i)});
    expected_sum += v * 8192 + i;
  }
  for (unsigned threads : {1u, 2u, 8u}) {
    Relation count = GroupAggregate(a, {"K"}, AggKind::kCount, "", "n",
                                    threads);
    ASSERT_EQ(count.size(), 1u);
    EXPECT_EQ(count.rows()[0][1].AsInt(), 5000);
    Relation sum = GroupAggregate(a, {"K"}, AggKind::kSum, "V", "s",
                                  threads);
    ASSERT_EQ(sum.size(), 1u);
    EXPECT_DOUBLE_EQ(sum.rows()[0][1].AsNumber(),
                     static_cast<double>(expected_sum));
  }
}

TEST_P(OpsProperty, ParallelGroupSumWithNegativeValuesMatchesSerial) {
  // GroupAggregate itself has no sign restriction (the flock evaluator
  // enforces that); sums over mixed-sign integers are exact and must be
  // identical for every thread count.
  Relation a{Schema({"K", "V"})};
  for (int i = 0; i < 6000; ++i) {
    std::int64_t v = static_cast<std::int64_t>(rng_.NextBelow(50)) - 25;
    a.Add({Value(static_cast<std::int64_t>(rng_.NextBelow(10))),
           Value(v * 8192 + i)});
  }
  Relation t1 = GroupAggregate(a, {"K"}, AggKind::kSum, "V", "s", 1);
  Relation t8 = GroupAggregate(a, {"K"}, AggKind::kSum, "V", "s", 8);
  EXPECT_EQ(t1.rows(), t8.rows());
}

TEST_P(OpsProperty, MetricsRowsOutEqualsCardinality) {
  // Metrics invariant: for every operator, rows_out equals the actual
  // result cardinality and rows_in the actual input sizes — on random
  // relations, for the serial and parallel variants alike.
  Relation a = RandomRelation(rng_, {"X", "Y"}, 60, 6);
  Relation b = RandomRelation(rng_, {"Y", "Z"}, 45, 6);

  OpMetrics join_m;
  Relation joined = NaturalJoin(a, b, 1, &join_m);
  EXPECT_EQ(join_m.rows_in, a.size());
  EXPECT_EQ(join_m.rows_in_right, b.size());
  EXPECT_EQ(join_m.rows_out, joined.size());
  // tuples_probed counts hash-table slot probes across the build and
  // probe phases: every build row and every probe row inspects at least
  // one slot, so the count is bounded below by a.size() + b.size().
  EXPECT_GE(join_m.tuples_probed, a.size() + b.size());

  OpMetrics semi_m, anti_m;
  Relation semi = SemiJoin(a, b, &semi_m);
  Relation anti = AntiJoin(a, b, &anti_m);
  EXPECT_EQ(semi_m.rows_out, semi.size());
  EXPECT_EQ(anti_m.rows_out, anti.size());
  EXPECT_EQ(semi_m.rows_out + anti_m.rows_out, a.size());

  OpMetrics union_m;
  Relation u = Union(semi, anti, &union_m);
  EXPECT_EQ(union_m.rows_in, semi.size());
  EXPECT_EQ(union_m.rows_in_right, anti.size());
  EXPECT_EQ(union_m.rows_out, u.size());

  OpMetrics group_m;
  Relation grouped = GroupAggregate(a, {"X"}, AggKind::kCount, "", "n", 1,
                                    &group_m);
  EXPECT_EQ(group_m.rows_in, a.size());
  EXPECT_EQ(group_m.rows_out, grouped.size());

  OpMetrics project_m, select_m;
  Relation projected = Project(joined, {"X", "Z"}, &project_m);
  EXPECT_EQ(project_m.rows_in, joined.size());
  EXPECT_EQ(project_m.rows_out, projected.size());
  Relation selected = Select(
      joined, [](const Tuple& t) { return t[0].AsInt() % 2 == 0; },
      &select_m);
  EXPECT_EQ(select_m.rows_in, joined.size());
  EXPECT_EQ(select_m.rows_out, selected.size());
}

TEST_P(OpsProperty, MetricsRowCountersThreadInvariant) {
  // The determinism contract extends to metrics: row counters (rows_in,
  // rows_out, tuples_probed) are identical for every thread count.
  // `morsels` reflects the actual decomposition (0 on the serial path,
  // input-size-determined when parallel) and is checked separately.
  Relation a = RandomRelation(rng_, {"X", "Y"}, 10000, 400);
  Relation b = RandomRelation(rng_, {"Y", "Z"}, 3000, 400);
  OpMetrics serial_m;
  Relation serial = NaturalJoin(a, b, 1, &serial_m);
  EXPECT_EQ(serial_m.morsels, 0u);
  std::uint64_t parallel_morsels = 0;
  for (unsigned threads : {2u, 8u}) {
    OpMetrics m;
    Relation parallel = NaturalJoin(a, b, threads, &m);
    EXPECT_EQ(Sorted(serial), Sorted(parallel));
    EXPECT_EQ(m.rows_in, serial_m.rows_in) << "threads=" << threads;
    EXPECT_EQ(m.rows_in_right, serial_m.rows_in_right);
    EXPECT_EQ(m.rows_out, serial_m.rows_out) << "threads=" << threads;
    EXPECT_EQ(m.tuples_probed, serial_m.tuples_probed);
    EXPECT_GT(m.morsels, 0u) << "threads=" << threads;
    if (parallel_morsels == 0) parallel_morsels = m.morsels;
    // Morsel count depends only on the input size, never on threads.
    EXPECT_EQ(m.morsels, parallel_morsels) << "threads=" << threads;
  }

  OpMetrics g_serial;
  Relation grouped =
      GroupAggregate(a, {"X"}, AggKind::kCount, "", "n", 1, &g_serial);
  for (unsigned threads : {1u, 2u, 8u}) {
    OpMetrics m;
    Relation parallel =
        GroupAggregate(a, {"X"}, AggKind::kCount, "", "n", threads, &m);
    EXPECT_EQ(Sorted(grouped), Sorted(parallel));
    EXPECT_EQ(m.rows_in, g_serial.rows_in) << "threads=" << threads;
    EXPECT_EQ(m.rows_out, g_serial.rows_out) << "threads=" << threads;
  }

  // The single-piece boundary of both kernels: 2 * morsel - 1 input rows
  // run as one piece at every thread count, 2 * morsel split at threads
  // >= 2. Rows, order and row counters match the threads 1 run either way.
  for (std::size_t n : {std::size_t{8191}, std::size_t{8192}}) {
    Relation probe = SizedRelation(rng_, n, 400);
    OpMetrics one_m;
    Relation one = NaturalJoin(probe, b, 1, &one_m);
    for (unsigned threads : {0u, 1u, 2u, 8u}) {
      OpMetrics m;
      EXPECT_EQ(NaturalJoin(probe, b, threads, &m).rows(), one.rows())
          << "threads=" << threads << " n=" << n;
      ExpectSameCounters(m, one_m, threads, n, 4096);
    }
  }
  for (std::size_t n : {std::size_t{4095}, std::size_t{4096}}) {
    Relation sized = SizedRelation(rng_, n, 400);
    OpMetrics one_m;
    Relation one =
        GroupAggregate(sized, {"Y"}, AggKind::kCount, "", "n", 1, &one_m);
    for (unsigned threads : {0u, 1u, 2u, 8u}) {
      OpMetrics m;
      EXPECT_EQ(GroupAggregate(sized, {"Y"}, AggKind::kCount, "", "n",
                               threads, &m)
                    .rows(),
                one.rows())
          << "threads=" << threads << " n=" << n;
      ExpectSameCounters(m, one_m, threads, n, 2048);
    }
  }
}

TEST_P(OpsProperty, MetricsChainLinksRowsAcrossOperators) {
  // Plan-edge invariant: feeding one operator's output into the next, the
  // downstream node's rows_in must equal the upstream node's rows_out.
  Relation a = RandomRelation(rng_, {"X", "Y"}, 50, 5);
  Relation b = RandomRelation(rng_, {"Y", "Z"}, 50, 5);
  OpMetrics root("chain");
  OpMetrics* join_m = root.AddChild("join");
  OpMetrics* group_m = root.AddChild("group_by");
  OpMetrics* project_m = root.AddChild("project");
  Relation joined = NaturalJoin(a, b, 1, join_m);
  Relation grouped =
      GroupAggregate(joined, {"X"}, AggKind::kCount, "", "n", 1, group_m);
  Relation projected = Project(grouped, {"X"}, project_m);
  EXPECT_EQ(group_m->rows_in, join_m->rows_out);
  EXPECT_EQ(project_m->rows_in, group_m->rows_out);
  EXPECT_EQ(project_m->rows_out, projected.size());
  EXPECT_EQ(root.NodeCount(), 4u);
}

TEST_P(OpsProperty, MetricsAccumulateAcrossCalls) {
  // Reusing one node across calls accumulates (+=) — the contract that
  // lets a loop of unions or repeated scans share a node.
  Relation a = RandomRelation(rng_, {"X"}, 30, 10);
  OpMetrics m;
  Relation p1 = Project(a, {"X"}, &m);
  Relation p2 = Project(a, {"X"}, &m);
  EXPECT_EQ(m.rows_in, 2 * a.size());
  EXPECT_EQ(m.rows_out, p1.size() + p2.size());
}

TEST_P(OpsProperty, ProjectIdempotent) {
  Relation a = RandomRelation(rng_, {"X", "Y", "Z"}, 50, 4);
  Relation once = Project(a, {"X", "Z"});
  Relation twice = Project(once, {"X", "Z"});
  EXPECT_EQ(Sorted(once), Sorted(twice));
  EXPECT_TRUE(IsSet(once));
}

INSTANTIATE_TEST_SUITE_P(Seeds, OpsProperty, ::testing::Range(1, 13));

}  // namespace
}  // namespace qf
