// Experiment E7 — Figs. 8-9 / §4.4: dynamic selection of filter steps.
//
// Strategies over the market-basket flock, sweeping the item-popularity
// skew (arg: 0 -> theta 0.5 flat/tail-heavy, 1 -> 0.9, 2 -> 1.3 head-heavy):
//   * StaticNone    — trivial plan (never filter): the "worst static";
//   * StaticAlways  — both prefilters unconditionally;
//   * CostChosen    — heuristic 1 with the cost model (static, estimated);
//   * Dynamic       — §4.4: decide per intermediate, from observed sizes.
// Expected shape: no single static choice wins everywhere; the dynamic
// strategy tracks the better static option in each regime without a cost
// model, because it reacts to the sizes it actually sees.
#include <benchmark/benchmark.h>

#include <map>

#include "bench/bench_util.h"
#include "common/check.h"
#include "flocks/eval.h"
#include "optimizer/dynamic.h"
#include "optimizer/executor_support.h"
#include "optimizer/plan_search.h"
#include "workload/basket_gen.h"

namespace qf {
namespace {

constexpr const char* kPairQuery =
    "answer(B) :- baskets(B,$1) AND baskets(B,$2) AND $1 < $2";
constexpr double kThetas[] = {0.5, 0.9, 1.3};
constexpr double kSupport = 15;

const Database& BasketsDb(int theta_index) {
  static std::map<int, const Database*>* cache =
      new std::map<int, const Database*>;
  auto it = cache->find(theta_index);
  if (it == cache->end()) {
    BasketConfig config;
    config.n_baskets = 15000;
    config.n_items = 8000;
    config.avg_basket_size = 8;
    config.zipf_theta = kThetas[theta_index];
    config.topic_locality = 0.3;
    config.n_topics = 120;
    config.seed = 47;
    auto* db = new Database;
    db->PutRelation(GenerateBaskets(config));
    it = cache->emplace(theta_index, db).first;
  }
  return *it->second;
}

QueryFlock PairFlock() {
  return bench::MustFlock(kPairQuery, FilterCondition::MinSupport(kSupport));
}

void BM_Fig9_StaticNone(benchmark::State& state) {
  const Database& db = BasketsDb(static_cast<int>(state.range(0)));
  QueryFlock flock = PairFlock();
  std::size_t pairs = 0;
  for (auto _ : state) {
    Relation result = bench::MustOk(EvaluateFlock(flock, db));
    pairs = result.size();
    benchmark::DoNotOptimize(result);
  }
  state.counters["pairs"] = static_cast<double>(pairs);
}

void BM_Fig9_StaticAlways(benchmark::State& state) {
  const Database& db = BasketsDb(static_cast<int>(state.range(0)));
  QueryFlock flock = PairFlock();
  auto ok1 = bench::MustOk(
      MakeFilterStep(flock, "ok1", {"1"}, std::vector<std::size_t>{0}));
  auto ok2 = bench::MustOk(
      MakeFilterStep(flock, "ok2", {"2"}, std::vector<std::size_t>{1}));
  QueryPlan plan = bench::MustOk(PlanWithPrefilters(flock, {ok1, ok2}));
  const DatabaseStats stats = DatabaseStats::Compute(db);
  std::size_t pairs = 0;
  for (auto _ : state) {
    Relation result =
        bench::MustOk(ExecutePlanOptimized(plan, flock, db, stats));
    pairs = result.size();
    benchmark::DoNotOptimize(result);
  }
  state.counters["pairs"] = static_cast<double>(pairs);
}

void BM_Fig9_CostChosen(benchmark::State& state) {
  const Database& db = BasketsDb(static_cast<int>(state.range(0)));
  QueryFlock flock = PairFlock();
  CostModel model(DatabaseStats::Compute(db));
  QueryPlan plan = bench::MustOk(SearchPlanParameterSets(flock, model));
  std::size_t pairs = 0;
  for (auto _ : state) {
    Relation result =
        bench::MustOk(ExecutePlanOptimized(plan, flock, db, model.stats()));
    pairs = result.size();
    benchmark::DoNotOptimize(result);
  }
  state.counters["pairs"] = static_cast<double>(pairs);
  state.counters["steps"] = static_cast<double>(plan.steps.size());
}

void BM_Fig9_Dynamic(benchmark::State& state) {
  const Database& db = BasketsDb(static_cast<int>(state.range(0)));
  QueryFlock flock = PairFlock();
  std::size_t pairs = 0, filters = 0, peak = 0;
  for (auto _ : state) {
    DynamicLog log;
    Relation result = bench::MustOk(DynamicEvaluate(flock, db, {}, {}, &log));
    pairs = result.size();
    filters = log.filters_applied;
    peak = log.peak_rows;
    benchmark::DoNotOptimize(result);
  }
  state.counters["pairs"] = static_cast<double>(pairs);
  state.counters["filters"] = static_cast<double>(filters);
  state.counters["peak_rows"] = static_cast<double>(peak);
}

// Parallel plan execution (args: theta index, threads): both prefilter
// steps are independent, so the wave scheduler runs them concurrently and
// every step's joins and group-bys go morsel-parallel. Verified outside
// the timed region to return exactly the serial rows.
void BM_Fig9_StaticAlwaysThreads(benchmark::State& state) {
  const Database& db = BasketsDb(static_cast<int>(state.range(0)));
  QueryFlock flock = PairFlock();
  auto ok1 = bench::MustOk(
      MakeFilterStep(flock, "ok1", {"1"}, std::vector<std::size_t>{0}));
  auto ok2 = bench::MustOk(
      MakeFilterStep(flock, "ok2", {"2"}, std::vector<std::size_t>{1}));
  QueryPlan plan = bench::MustOk(PlanWithPrefilters(flock, {ok1, ok2}));
  unsigned threads = static_cast<unsigned>(state.range(1));
  const DatabaseStats stats = DatabaseStats::Compute(db);
  {
    Relation serial =
        bench::MustOk(ExecutePlanOptimized(plan, flock, db, stats));
    Relation parallel = bench::MustOk(
        ExecutePlanOptimized(plan, flock, db, stats, {.threads = threads}));
    QF_CHECK(serial.rows() == parallel.rows());
  }
  std::size_t pairs = 0;
  for (auto _ : state) {
    Relation result = bench::MustOk(
        ExecutePlanOptimized(plan, flock, db, stats, {.threads = threads}));
    pairs = result.size();
    benchmark::DoNotOptimize(result);
  }
  state.counters["pairs"] = static_cast<double>(pairs);
}

#define QF_FIG9_ARGS ->Arg(0)->Arg(1)->Arg(2)->Unit(benchmark::kMillisecond)

BENCHMARK(BM_Fig9_StaticNone) QF_FIG9_ARGS;
BENCHMARK(BM_Fig9_StaticAlways) QF_FIG9_ARGS;
BENCHMARK(BM_Fig9_CostChosen) QF_FIG9_ARGS;
BENCHMARK(BM_Fig9_Dynamic) QF_FIG9_ARGS;
BENCHMARK(BM_Fig9_StaticAlwaysThreads)
    ->Args({1, 1})
    ->Args({1, 2})
    ->Args({1, 4})
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace qf

BENCHMARK_MAIN();
