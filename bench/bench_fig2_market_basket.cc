// Experiment E2 — Fig. 2: market-basket analysis as a query flock.
//
// Compares, across support thresholds:
//   * FlockDirect  — the flock evaluator, no rewrite;
//   * FlockPlan    — the generalized a-priori plan (ok1/ok2 prefilters);
//   * Apriori      — the hand-coded two-pass a-priori pair miner [AS94];
//   * NaivePairs   — hand-coded pair counting without the pre-filter.
// Expected shape: the specialized a-priori miner is fastest in absolute
// terms (the paper concedes ad-hoc algorithms beat DBMS evaluation); the
// flock plan tracks the same support-dependence curve — higher support,
// more pruning, faster — while the unfiltered strategies stay flat.
#include <benchmark/benchmark.h>

#include "apriori/apriori.h"
#include "bench/bench_util.h"
#include "common/check.h"
#include "flocks/eval.h"
#include "optimizer/executor_support.h"
#include "plan/plan.h"
#include "workload/basket_gen.h"

namespace qf {
namespace {

constexpr const char* kPairQuery =
    "answer(B) :- baskets(B,$1) AND baskets(B,$2) AND $1 < $2";

BasketConfig RetailConfig() {
  BasketConfig config;
  config.n_baskets = 20000;
  config.n_items = 3000;
  config.avg_basket_size = 10;
  config.zipf_theta = 0.75;
  config.topic_locality = 0.35;
  config.n_topics = 150;
  config.seed = 7;
  return config;
}

const Database& RetailDb() {
  static const Database* db = [] {
    auto* out = new Database;
    out->PutRelation(GenerateBaskets(RetailConfig()));
    return out;
  }();
  return *db;
}

// Statistics once per database, as the shell keeps them per relation
// version, so the plan benches time what a session's PLAN statement does.
const DatabaseStats& RetailStats() {
  static const DatabaseStats stats = DatabaseStats::Compute(RetailDb());
  return stats;
}

const BasketData& RetailBaskets() {
  static const BasketData* data = [] {
    return new BasketData(bench::MustOk(
        BasketsFromRelation(RetailDb().Get("baskets"), "BID", "Item")));
  }();
  return *data;
}

void BM_Fig2_FlockDirect(benchmark::State& state) {
  QueryFlock flock = bench::MustFlock(
      kPairQuery, FilterCondition::MinSupport(state.range(0)));
  const Database& db = RetailDb();  // generated before the timed loop
  std::size_t pairs = 0;
  for (auto _ : state) {
    Relation result = bench::MustOk(EvaluateFlock(flock, db));
    pairs = result.size();
    benchmark::DoNotOptimize(result);
  }
  state.counters["pairs"] = static_cast<double>(pairs);
}

void BM_Fig2_FlockPlan(benchmark::State& state) {
  QueryFlock flock = bench::MustFlock(
      kPairQuery, FilterCondition::MinSupport(state.range(0)));
  auto ok1 = bench::MustOk(
      MakeFilterStep(flock, "ok1", {"1"}, std::vector<std::size_t>{0}));
  auto ok2 = bench::MustOk(
      MakeFilterStep(flock, "ok2", {"2"}, std::vector<std::size_t>{1}));
  QueryPlan plan = bench::MustOk(PlanWithPrefilters(flock, {ok1, ok2}));
  const Database& db = RetailDb();
  const DatabaseStats& stats = RetailStats();
  std::size_t pairs = 0;
  for (auto _ : state) {
    Relation result =
        bench::MustOk(ExecutePlanOptimized(plan, flock, db, stats));
    pairs = result.size();
    benchmark::DoNotOptimize(result);
  }
  state.counters["pairs"] = static_cast<double>(pairs);
}

void BM_Fig2_Apriori(benchmark::State& state) {
  const BasketData& data = RetailBaskets();
  std::size_t pairs = 0;
  for (auto _ : state) {
    std::vector<Itemset> result = AprioriFrequentPairs(data, state.range(0));
    pairs = result.size();
    benchmark::DoNotOptimize(result);
  }
  state.counters["pairs"] = static_cast<double>(pairs);
}

void BM_Fig2_NaivePairs(benchmark::State& state) {
  const BasketData& data = RetailBaskets();
  std::size_t pairs = 0;
  for (auto _ : state) {
    std::vector<Itemset> result = NaiveFrequentPairs(data, state.range(0));
    pairs = result.size();
    benchmark::DoNotOptimize(result);
  }
  state.counters["pairs"] = static_cast<double>(pairs);
}

// Threads-parameterized variants (args: support, threads). Before timing,
// each verifies the parallel result is byte-identical to the serial one —
// the determinism contract the morsel engine promises (DESIGN.md,
// "Threading model"). Wall-clock gains require real cores; on a 1-core
// host these measure the coordination overhead instead.
void BM_Fig2_FlockDirectThreads(benchmark::State& state) {
  QueryFlock flock = bench::MustFlock(
      kPairQuery, FilterCondition::MinSupport(state.range(0)));
  const ExecEnv env{.threads = static_cast<unsigned>(state.range(1))};
  {
    Relation serial = bench::MustOk(EvaluateFlock(flock, RetailDb()));
    Relation parallel =
        bench::MustOk(EvaluateFlock(flock, RetailDb(), {}, env));
    QF_CHECK(serial.schema() == parallel.schema());
    QF_CHECK(serial.rows() == parallel.rows());
  }
  std::size_t pairs = 0;
  for (auto _ : state) {
    Relation result =
        bench::MustOk(EvaluateFlock(flock, RetailDb(), {}, env));
    pairs = result.size();
    benchmark::DoNotOptimize(result);
  }
  state.counters["pairs"] = static_cast<double>(pairs);
}

void BM_Fig2_FlockPlanThreads(benchmark::State& state) {
  QueryFlock flock = bench::MustFlock(
      kPairQuery, FilterCondition::MinSupport(state.range(0)));
  auto ok1 = bench::MustOk(
      MakeFilterStep(flock, "ok1", {"1"}, std::vector<std::size_t>{0}));
  auto ok2 = bench::MustOk(
      MakeFilterStep(flock, "ok2", {"2"}, std::vector<std::size_t>{1}));
  QueryPlan plan = bench::MustOk(PlanWithPrefilters(flock, {ok1, ok2}));
  unsigned threads = static_cast<unsigned>(state.range(1));
  {
    Relation serial = bench::MustOk(
        ExecutePlanOptimized(plan, flock, RetailDb(), RetailStats()));
    Relation parallel = bench::MustOk(ExecutePlanOptimized(
        plan, flock, RetailDb(), RetailStats(), {.threads = threads}));
    QF_CHECK(serial.schema() == parallel.schema());
    QF_CHECK(serial.rows() == parallel.rows());
  }
  std::size_t pairs = 0;
  for (auto _ : state) {
    Relation result = bench::MustOk(ExecutePlanOptimized(
        plan, flock, RetailDb(), RetailStats(), {.threads = threads}));
    pairs = result.size();
    benchmark::DoNotOptimize(result);
  }
  state.counters["pairs"] = static_cast<double>(pairs);
}

void BM_Fig2_AprioriThreads(benchmark::State& state) {
  const BasketData& data = RetailBaskets();
  unsigned threads = static_cast<unsigned>(state.range(1));
  std::size_t pairs = 0;
  for (auto _ : state) {
    std::vector<Itemset> result =
        AprioriFrequentPairs(data, state.range(0), {.threads = threads});
    pairs = result.size();
    benchmark::DoNotOptimize(result);
  }
  state.counters["pairs"] = static_cast<double>(pairs);
}

#define QF_FIG2_ARGS \
  ->Arg(20)->Arg(50)->Arg(100)->Arg(200)->Unit(benchmark::kMillisecond)
#define QF_FIG2_THREAD_ARGS                            \
  ->Args({50, 1})->Args({50, 2})->Args({50, 4})        \
  ->Unit(benchmark::kMillisecond)

BENCHMARK(BM_Fig2_FlockDirect) QF_FIG2_ARGS;
BENCHMARK(BM_Fig2_FlockPlan) QF_FIG2_ARGS;
BENCHMARK(BM_Fig2_Apriori) QF_FIG2_ARGS;
BENCHMARK(BM_Fig2_NaivePairs) QF_FIG2_ARGS;
BENCHMARK(BM_Fig2_FlockDirectThreads) QF_FIG2_THREAD_ARGS;
BENCHMARK(BM_Fig2_FlockPlanThreads) QF_FIG2_THREAD_ARGS;
BENCHMARK(BM_Fig2_AprioriThreads) QF_FIG2_THREAD_ARGS;

}  // namespace
}  // namespace qf

BENCHMARK_MAIN();
