// Experiment E8 — out-of-core execution: the Fig. 2 market-basket flock
// at 10x the retail workload, evaluated under memory budgets far below
// its in-memory peak.
//
//   * InMemory   — unbudgeted baseline (the PR 3 fast path, untouched);
//   * Spill/N    — budget = peak/N with a spill environment: grace-hash
//                  partitioning keeps the query running and the answer
//                  bit-identical (checked every iteration);
//   * PagedScan/P — streaming scan of a paged relation file through a
//                  buffer pool sized at P% of the file, measuring the
//                  re-read cost the clock replacer pays under pressure;
//   * PagedReadAll — a fresh DiskRelation::Open plus ReadAll through a
//                  pool at 1/6 of the decoded file: the restore path of a
//                  fresh-session OPEN (read, CRC-verify, decode each page
//                  once, build each output row once).
//
// Startup also proves the before picture: the same halved budget WITHOUT
// a spill environment must return RESOURCE_EXHAUSTED — that is the abort
// this subsystem exists to turn into a slower-but-correct answer.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/check.h"
#include "common/resource.h"
#include "common/status.h"
#include "common/vfs.h"
#include "flocks/eval.h"
#include "relational/spill.h"
#include "storage/buffer_pool.h"
#include "storage/page.h"
#include "workload/basket_gen.h"

namespace qf {
namespace {

constexpr const char* kPairQuery =
    "answer(B) :- baskets(B,$1) AND baskets(B,$2) AND $1 < $2";
// Support scales linearly with the basket count: 500 at 10x data sits on
// the same point of the support curve as Fig. 2's 50 at 1x.
constexpr std::int64_t kSupport = 500;

BasketConfig TenXRetailConfig() {
  BasketConfig config;
  config.n_baskets = 200000;  // 10x bench_fig2_market_basket's RetailConfig
  config.n_items = 3000;
  config.avg_basket_size = 10;
  config.zipf_theta = 0.75;
  config.topic_locality = 0.35;
  config.n_topics = 150;
  config.seed = 7;
  return config;
}

const Database& TenXDb() {
  static const Database* db = [] {
    auto* out = new Database;
    out->PutRelation(GenerateBaskets(TenXRetailConfig()));
    return out;
  }();
  return *db;
}

struct Baseline {
  Relation result;
  std::uint64_t peak_bytes;
};

const Baseline& UnbudgetedBaseline() {
  static const Baseline* base = [] {
    QueryFlock flock =
        bench::MustFlock(kPairQuery, FilterCondition::MinSupport(kSupport));
    QueryContext ctx;
    Relation r =
        bench::MustOk(EvaluateFlock(flock, TenXDb(), {}, {.ctx = &ctx}));
    auto* out = new Baseline{std::move(r), ctx.peak_bytes()};
    QF_CHECK(out->peak_bytes > 0);
    // The before picture: half the peak with no spill environment is a
    // typed hard abort, not a wrong answer and not a crash.
    QueryContext starved;
    starved.set_memory_budget(out->peak_bytes / 2);
    Result<Relation> denied =
        EvaluateFlock(flock, TenXDb(), {}, {.ctx = &starved});
    QF_CHECK(!denied.ok());
    QF_CHECK(denied.status().code() == StatusCode::kResourceExhausted);
    return out;
  }();
  return *base;
}

void BM_OutOfCore_InMemory(benchmark::State& state) {
  const Baseline& base = UnbudgetedBaseline();
  QueryFlock flock =
      bench::MustFlock(kPairQuery, FilterCondition::MinSupport(kSupport));
  for (auto _ : state) {
    Relation r = bench::MustOk(EvaluateFlock(flock, TenXDb()));
    QF_CHECK(r.rows() == base.result.rows());
    benchmark::DoNotOptimize(r);
  }
  state.counters["answers"] = static_cast<double>(base.result.size());
  state.counters["peak_mb"] =
      static_cast<double>(base.peak_bytes) / (1024.0 * 1024.0);
}

// Arg: divisor of the in-memory peak — Spill/4 runs under a quarter of
// the memory the unbudgeted evaluation used.
void BM_OutOfCore_Spill(benchmark::State& state) {
  const Baseline& base = UnbudgetedBaseline();
  std::uint64_t budget =
      base.peak_bytes / static_cast<std::uint64_t>(state.range(0));
  QueryFlock flock =
      bench::MustFlock(kPairQuery, FilterCondition::MinSupport(kSupport));
  PosixVfs vfs;
  const std::string dir = "bench_outofcore_spill";
  std::uint64_t spilled_rows = 0;
  std::uint64_t spill_bytes = 0;
  for (auto _ : state) {
    SpillEnv env;
    env.vfs = &vfs;
    env.dir = dir;
    QueryContext ctx;
    ctx.set_memory_budget(budget);
    ctx.set_spill_env(&env);
    Relation r =
        bench::MustOk(EvaluateFlock(flock, TenXDb(), {}, {.ctx = &ctx}));
    // The whole point: bit-identical under pressure.
    QF_CHECK(r.rows() == base.result.rows());
    QF_CHECK(env.stats.activations.load() > 0);
    spilled_rows = env.stats.spilled_rows.load();
    spill_bytes =
        env.stats.bytes_written.load() + env.stats.bytes_read.load();
    benchmark::DoNotOptimize(r);
  }
  // Spill files never outlive their statement; this sweep is bookkeeping
  // for the directory itself.
  QF_CHECK(bench::MustOk(RemoveSpillFiles(vfs, dir)) == 0);
  state.counters["budget_mb"] =
      static_cast<double>(budget) / (1024.0 * 1024.0);
  state.counters["spilled_rows"] = static_cast<double>(spilled_rows);
  state.counters["spill_mb"] =
      static_cast<double>(spill_bytes) / (1024.0 * 1024.0);
}

struct PagedFile {
  std::string path;
  std::uint64_t decoded_bytes;  // sum of in-memory page charges
  std::uint64_t rows;
};

const PagedFile& BenchPagedFile() {
  static const PagedFile* file = [] {
    static PosixVfs vfs;
    Relation rel = GenerateBaskets([] {
      BasketConfig c;
      c.n_baskets = 20000;
      c.n_items = 3000;
      c.avg_basket_size = 10;
      c.seed = 7;
      return c;
    }());
    auto* out = new PagedFile{"bench_outofcore_pages.qfp", 0, rel.size()};
    bench::MustOk(WritePagedRelation(vfs, out->path, rel));
    // The pool caches decoded pages, so capacity percentages are against
    // the decoded (accounted) size, not the serialized file size.
    std::unique_ptr<DiskRelation> disk =
        bench::MustOk(DiskRelation::Open(vfs, out->path));
    for (std::size_t p = 0; p < disk->page_count(); ++p) {
      out->decoded_bytes += bench::MustOk(disk->ReadPage(p))->bytes;
    }
    return out;
  }();
  return *file;
}

// Arg: buffer-pool capacity as a percent of the paged file. 100 scans
// entirely from cache after warmup; 10 forces the clock replacer to
// evict and re-read pages continuously — the steady-state cost of
// reading a relation that does not fit.
void BM_OutOfCore_PagedScan(benchmark::State& state) {
  const PagedFile& file = BenchPagedFile();
  PosixVfs vfs;
  BufferPool pool(file.decoded_bytes *
                  static_cast<std::uint64_t>(state.range(0)) / 100);
  std::unique_ptr<DiskRelation> disk =
      bench::MustOk(DiskRelation::Open(vfs, file.path, &pool));
  std::uint64_t rows = 0;
  auto count = [&rows](std::span<const Value>) {
    ++rows;
    return Status::Ok();
  };
  // Warm scan so the 100% case measures hits, not cold misses.
  rows = 0;
  QF_CHECK(disk->Scan(count).ok());
  QF_CHECK(rows == file.rows);
  for (auto _ : state) {
    rows = 0;
    QF_CHECK(disk->Scan(count).ok());
    QF_CHECK(rows == file.rows);
    bench::ConsumeScalar(rows);
  }
  BufferPoolStats st = pool.stats();
  double total = static_cast<double>(st.hits + st.misses);
  state.counters["hit_rate"] =
      total > 0 ? static_cast<double>(st.hits) / total : 0.0;
  state.counters["evictions"] = static_cast<double>(st.evictions);
}

// The restore path of a fresh OPEN: every iteration opens the file anew
// with a new pool at 1/6 of the decoded size (so every page misses and
// most are evicted) and materializes the relation.
void BM_OutOfCore_PagedReadAll(benchmark::State& state) {
  const PagedFile& file = BenchPagedFile();
  PosixVfs vfs;
  std::uint64_t misses = 0;
  for (auto _ : state) {
    BufferPool pool(file.decoded_bytes / 6);
    std::unique_ptr<DiskRelation> disk =
        bench::MustOk(DiskRelation::Open(vfs, file.path, &pool));
    Relation rel = bench::MustOk(disk->ReadAll());
    QF_CHECK(rel.size() == file.rows);
    misses = pool.stats().misses;
    QF_CHECK(misses == disk->page_count());
    bench::ConsumeScalar(rel.size());
  }
  state.counters["pages"] = static_cast<double>(misses);
  state.counters["rows"] = static_cast<double>(file.rows);
}

BENCHMARK(BM_OutOfCore_InMemory)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_OutOfCore_Spill)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_OutOfCore_PagedScan)
    ->Arg(10)
    ->Arg(100)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_OutOfCore_PagedReadAll)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace qf

BENCHMARK_MAIN();
