// Experiment E10 — microbenchmarks of the machinery under everything:
// relational operators (hash join, dedup projection, grouping), the
// containment-mapping test of §3.1, safety checking, the parser, and the
// CRC32C every frame (WAL, snapshot, page, spill block, wire) is checked
// with.
// These are the constants the macro results (E1-E8) are built from.
#include <benchmark/benchmark.h>

#include <string>

#include "bench/bench_util.h"
#include "common/crc32c.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "datalog/containment.h"
#include "datalog/parser.h"
#include "datalog/safety.h"
#include "relational/ops.h"

namespace qf {
namespace {

Relation RandomRelation(std::size_t rows, std::size_t key_domain,
                        std::uint64_t seed) {
  Rng rng(seed);
  Relation rel(Schema({"K", "V"}));
  for (std::size_t i = 0; i < rows; ++i) {
    rel.AddRow({Value(static_cast<std::int64_t>(
                    rng.NextBelow(static_cast<std::uint32_t>(key_domain)))),
                Value(static_cast<std::int64_t>(i))});
  }
  rel.Dedup();
  return rel;
}

// Duplicate-heavy relation: both columns draw from `domain`, duplicates
// kept — the input shape Dedup/Distinct exist for.
Relation RandomDupRelation(std::size_t rows, std::size_t domain,
                           std::uint64_t seed) {
  Rng rng(seed);
  Relation rel(Schema({"K", "V"}));
  rel.mutable_rows().reserve(rows);
  for (std::size_t i = 0; i < rows; ++i) {
    rel.AddRow({Value(static_cast<std::int64_t>(
                    rng.NextBelow(static_cast<std::uint32_t>(domain)))),
                Value(static_cast<std::int64_t>(
                    rng.NextBelow(static_cast<std::uint32_t>(domain))))});
  }
  return rel;
}

void BM_Micro_NaturalJoin(benchmark::State& state) {
  std::size_t n = static_cast<std::size_t>(state.range(0));
  Relation a = RandomRelation(n, n / 10, 1);
  Relation b = Rename(RandomRelation(n, n / 10, 2), {"K", "W"});
  std::size_t out_rows = 0;
  for (auto _ : state) {
    Relation j = NaturalJoin(a, b, 1);
    out_rows = j.size();
    benchmark::DoNotOptimize(j);
  }
  state.counters["out_rows"] = static_cast<double>(out_rows);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(out_rows));
}

void BM_Micro_ParallelJoin(benchmark::State& state) {
  std::size_t n = static_cast<std::size_t>(state.range(0));
  unsigned threads = static_cast<unsigned>(state.range(1));
  Relation a = RandomRelation(n, n / 10, 1);
  Relation b = Rename(RandomRelation(n / 4, n / 10, 2), {"K", "W"});
  // The parallel join promises the serial join's exact row order.
  QF_CHECK(NaturalJoin(a, b, threads).rows() ==
           NaturalJoin(a, b, 1).rows());
  for (auto _ : state) {
    Relation j = NaturalJoin(a, b, threads);
    benchmark::DoNotOptimize(j);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}

void BM_Micro_ParallelGroupCount(benchmark::State& state) {
  std::size_t n = static_cast<std::size_t>(state.range(0));
  unsigned threads = static_cast<unsigned>(state.range(1));
  Relation a = RandomRelation(n, n / 20, 4);
  // Parallel group-by is bit-identical for every thread count.
  QF_CHECK(GroupAggregate(a, {"K"}, AggKind::kCount, "", "n", threads)
               .rows() ==
           GroupAggregate(a, {"K"}, AggKind::kCount, "", "n", 1).rows());
  for (auto _ : state) {
    Relation g = GroupAggregate(a, {"K"}, AggKind::kCount, "", "n", threads);
    benchmark::DoNotOptimize(g);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}

// Join dominated by hash-index build + probe rather than by output
// construction: near-unique keys on both sides (domain == n), probe side
// 4x the build side, output ~n/4 rows. This is the kernel the flat-hash
// acceptance bar measures at 1M rows.
void BM_Micro_JoinBuildProbe(benchmark::State& state) {
  std::size_t n = static_cast<std::size_t>(state.range(0));
  Relation a = RandomRelation(n, n, 11);
  Relation b = Rename(RandomRelation(n / 4, n, 12), {"K", "W"});
  std::size_t out_rows = 0;
  for (auto _ : state) {
    Relation j = NaturalJoin(a, b, 1);
    out_rows = j.size();
    benchmark::DoNotOptimize(j);
  }
  state.counters["out_rows"] = static_cast<double>(out_rows);
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}

// Whole-row set-semantics dedup (Relation::Dedup via Distinct) on a
// duplicate-heavy input — the other kernel of the flat-hash acceptance
// bar at 1M rows.
void BM_Micro_Dedup(benchmark::State& state) {
  std::size_t n = static_cast<std::size_t>(state.range(0));
  Relation a = RandomDupRelation(n, 1200, 13);
  std::size_t out_rows = 0;
  for (auto _ : state) {
    Relation d = Distinct(a);
    out_rows = d.size();
    benchmark::DoNotOptimize(d);
  }
  state.counters["out_rows"] = static_cast<double>(out_rows);
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}

void BM_Micro_SemiJoin(benchmark::State& state) {
  std::size_t n = static_cast<std::size_t>(state.range(0));
  Relation a = RandomRelation(n, n / 10, 14);
  Relation b = Rename(RandomRelation(n / 4, n / 10, 15), {"K", "W"});
  for (auto _ : state) {
    Relation j = SemiJoin(a, b);
    benchmark::DoNotOptimize(j);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}

void BM_Micro_ProjectDedup(benchmark::State& state) {
  std::size_t n = static_cast<std::size_t>(state.range(0));
  Relation a = RandomRelation(n, n / 20, 3);
  for (auto _ : state) {
    Relation p = Project(a, {"K"});
    benchmark::DoNotOptimize(p);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}

void BM_Micro_GroupCount(benchmark::State& state) {
  std::size_t n = static_cast<std::size_t>(state.range(0));
  Relation a = RandomRelation(n, n / 20, 4);
  for (auto _ : state) {
    Relation g = GroupAggregate(a, {"K"}, AggKind::kCount, "", "n", 1);
    benchmark::DoNotOptimize(g);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}

void BM_Micro_AntiJoin(benchmark::State& state) {
  std::size_t n = static_cast<std::size_t>(state.range(0));
  Relation a = RandomRelation(n, n / 10, 5);
  Relation b = Rename(RandomRelation(n / 4, n / 10, 6), {"K", "V"});
  for (auto _ : state) {
    Relation j = AntiJoin(a, b);
    benchmark::DoNotOptimize(j);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}

// Observability overhead (DESIGN.md "Observability"): the same
// join+group pipeline with metrics disabled (null pointer — the
// production default), with a metrics tree attached, and with trace
// spans emitted on top. The acceptance bar is that Off stays within
// noise (<5%) of the plain operator benchmarks above: the disabled path
// is one branch per operator, no clock reads, no allocations.
void BM_Micro_PipelineMetricsOff(benchmark::State& state) {
  std::size_t n = static_cast<std::size_t>(state.range(0));
  Relation a = RandomRelation(n, n / 10, 7);
  Relation b = Rename(RandomRelation(n / 4, n / 10, 8), {"K", "W"});
  for (auto _ : state) {
    Relation j = NaturalJoin(a, b, 1);
    Relation g = GroupAggregate(j, {"K"}, AggKind::kCount, "", "n", 1);
    benchmark::DoNotOptimize(g);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}

void BM_Micro_PipelineMetricsOn(benchmark::State& state) {
  std::size_t n = static_cast<std::size_t>(state.range(0));
  Relation a = RandomRelation(n, n / 10, 7);
  Relation b = Rename(RandomRelation(n / 4, n / 10, 8), {"K", "W"});
  OpMetrics root("pipeline");
  OpMetrics* join_m = root.AddChild("join");
  OpMetrics* group_m = root.AddChild("group_by");
  for (auto _ : state) {
    Relation j;
    {
      ScopedOp span(join_m);
      j = NaturalJoin(a, b, 1, join_m);
    }
    ScopedOp span(group_m);
    Relation g = GroupAggregate(j, {"K"}, AggKind::kCount, "", "n", 1, group_m);
    benchmark::DoNotOptimize(g);
  }
  // Surface the observed counters in the benchmark's own (JSON-ready)
  // output: `--benchmark_out=BENCH_micro.json --benchmark_out_format=json`
  // carries them into the CI artifact.
  state.counters["join_rows_out"] =
      static_cast<double>(join_m->rows_out / state.iterations());
  state.counters["group_rows_out"] =
      static_cast<double>(group_m->rows_out / state.iterations());
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}

void BM_Micro_PipelineMetricsTraced(benchmark::State& state) {
  std::size_t n = static_cast<std::size_t>(state.range(0));
  Relation a = RandomRelation(n, n / 10, 7);
  Relation b = Rename(RandomRelation(n / 4, n / 10, 8), {"K", "W"});
  OpMetrics root("pipeline");
  OpMetrics* join_m = root.AddChild("join");
  OpMetrics* group_m = root.AddChild("group_by");
  MemoryTraceSink sink;
  for (auto _ : state) {
    Relation j;
    {
      ScopedOp span(join_m, &sink);
      j = NaturalJoin(a, b, 1, join_m);
    }
    ScopedOp span(group_m, &sink);
    Relation g = GroupAggregate(j, {"K"}, AggKind::kCount, "", "n", 1, group_m);
    benchmark::DoNotOptimize(g);
    // Keep the buffer bounded; Clear holds the same lock the spans take,
    // so the per-event cost stays in the measurement.
    if (sink.event_count() > 4096) sink.Clear();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}

// Containment mapping on path queries of growing length: backtracking
// search over subgoal images.
std::string PathQuery(int n) {
  std::string q = "answer(X0) :- arc(X0,X1)";
  for (int i = 1; i < n; ++i) {
    q += " AND arc(X" + std::to_string(i) + ",X" + std::to_string(i + 1) +
         ")";
  }
  return q;
}

void BM_Micro_Containment(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  ConjunctiveQuery shorter = bench::MustOk(ParseRule(PathQuery(n)));
  ConjunctiveQuery longer = bench::MustOk(ParseRule(PathQuery(n + 2)));
  bool contains = false;
  for (auto _ : state) {
    contains = Contains(shorter, longer);
    bench::ConsumeScalar(contains);
  }
  QF_CHECK(contains);
}

void BM_Micro_Safety(benchmark::State& state) {
  ConjunctiveQuery cq = bench::MustOk(ParseRule(
      "answer(P) :- exhibits(P,$s) AND treatments(P,$m) AND "
      "diagnoses(P,D) AND NOT causes(D,$s) AND $s < $m"));
  bool safe = false;
  for (auto _ : state) {
    safe = IsSafe(cq);
    bench::ConsumeScalar(safe);
  }
  QF_CHECK(safe);
}

void BM_Micro_Parser(benchmark::State& state) {
  const char* text = R"(
      answer(D) :- inTitle(D,$1) AND inTitle(D,$2) AND $1 < $2
      answer(A) :- link(A,D1,D2) AND inAnchor(A,$1) AND inTitle(D2,$2)
                   AND $1 < $2
      answer(A) :- link(A,D1,D2) AND inAnchor(A,$2) AND inTitle(D2,$1)
                   AND $1 < $2
  )";
  for (auto _ : state) {
    auto q = ParseQuery(text);
    benchmark::DoNotOptimize(q);
  }
}

// CRC32C over one page-sized buffer: the dispatched implementation (the
// crc32 instruction where the CPU has SSE4.2) and the portable
// slicing-by-4 tables it replaces there. bytes_per_second is the figure.
std::string CrcBuffer(std::size_t n) {
  Rng rng(11);
  std::string buf(n, '\0');
  for (char& c : buf) c = static_cast<char>(rng.NextBelow(256));
  return buf;
}

void BM_Micro_Crc32c(benchmark::State& state) {
  std::string buf = CrcBuffer(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) bench::ConsumeScalar(Crc32c(buf));
  QF_CHECK(Crc32c(buf) == detail::Crc32cExtendPortable(0, buf));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}

void BM_Micro_Crc32cPortable(benchmark::State& state) {
  std::string buf = CrcBuffer(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    bench::ConsumeScalar(detail::Crc32cExtendPortable(0, buf));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}

BENCHMARK(BM_Micro_NaturalJoin)->Arg(1000)->Arg(10000)->Arg(100000);
BENCHMARK(BM_Micro_ParallelJoin)
    ->Args({100000, 1})
    ->Args({100000, 2})
    ->Args({100000, 4})
    ->Args({400000, 4});
BENCHMARK(BM_Micro_JoinBuildProbe)->Arg(100000)->Arg(1000000);
BENCHMARK(BM_Micro_Dedup)->Arg(100000)->Arg(1000000);
BENCHMARK(BM_Micro_SemiJoin)->Arg(100000)->Arg(1000000);
BENCHMARK(BM_Micro_ProjectDedup)->Arg(1000)->Arg(10000)->Arg(100000)
    ->Arg(1000000);
BENCHMARK(BM_Micro_GroupCount)->Arg(1000)->Arg(10000)->Arg(100000)
    ->Arg(1000000);
BENCHMARK(BM_Micro_ParallelGroupCount)
    ->Args({100000, 1})
    ->Args({100000, 2})
    ->Args({100000, 4});
BENCHMARK(BM_Micro_AntiJoin)->Arg(1000)->Arg(10000)->Arg(100000);
BENCHMARK(BM_Micro_PipelineMetricsOff)->Arg(10000)->Arg(100000);
BENCHMARK(BM_Micro_PipelineMetricsOn)->Arg(10000)->Arg(100000);
BENCHMARK(BM_Micro_PipelineMetricsTraced)->Arg(10000)->Arg(100000);
BENCHMARK(BM_Micro_Containment)->DenseRange(2, 6);
BENCHMARK(BM_Micro_Safety);
BENCHMARK(BM_Micro_Parser);
BENCHMARK(BM_Micro_Crc32c)->Arg(65536);
BENCHMARK(BM_Micro_Crc32cPortable)->Arg(65536);

}  // namespace
}  // namespace qf

BENCHMARK_MAIN();
