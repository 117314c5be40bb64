// Ablation — how good are the optimizer's estimates? (DESIGN.md lists the
// System-R cost model and the §4.4 statistics refinement as design
// choices; this bench quantifies them.)
//
// For the market-basket prefilter subquery at several thresholds, compares
//   * the coarse survivor model (distinct counts + exponential tail),
//   * the profiled estimate (per-column frequency profiles — exact),
// against the measured survivor count; counters report est vs actual.
// Also times statistics collection itself (shallow vs detailed), the cost
// the profiled accuracy is bought with.
#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "datalog/parser.h"
#include "flocks/eval.h"
#include "optimizer/cost_model.h"
#include "workload/basket_gen.h"

namespace qf {
namespace {

const Database& BasketsDb() {
  static const Database* db = [] {
    BasketConfig config;
    config.n_baskets = 10000;
    config.n_items = 5000;
    config.avg_basket_size = 8;
    config.zipf_theta = 0.9;
    config.topic_locality = 0.3;
    config.seed = 77;
    auto* out = new Database;
    out->PutRelation(GenerateBaskets(config));
    return out;
  }();
  return *db;
}

std::size_t ActualSurvivors(double threshold) {
  QueryFlock flock = bench::MustFlock("answer(B) :- baskets(B,$1)",
                                      FilterCondition::MinSupport(threshold));
  return bench::MustOk(EvaluateFlock(flock, BasketsDb())).size();
}

void BM_CostModel_CoarseSurvivors(benchmark::State& state) {
  double threshold = static_cast<double>(state.range(0));
  CostModel model(DatabaseStats::Compute(BasketsDb()));
  ConjunctiveQuery sub =
      bench::MustOk(ParseRule("answer(B) :- baskets(B,$1)"));
  double est = 0;
  for (auto _ : state) {
    est = model.EstimateFilter(sub, threshold).survivors;
    bench::ConsumeScalar(est);
  }
  state.counters["estimated"] = est;
  state.counters["actual"] = static_cast<double>(ActualSurvivors(threshold));
}

void BM_CostModel_ProfiledSurvivors(benchmark::State& state) {
  double threshold = static_cast<double>(state.range(0));
  CostModel model(DatabaseStats::Compute(BasketsDb(), /*detailed=*/true));
  ConjunctiveQuery sub =
      bench::MustOk(ParseRule("answer(B) :- baskets(B,$1)"));
  double est = 0;
  for (auto _ : state) {
    est = model.EstimateFilter(sub, threshold).survivors;
    bench::ConsumeScalar(est);
  }
  state.counters["estimated"] = est;
  state.counters["actual"] = static_cast<double>(ActualSurvivors(threshold));
}

void BM_CostModel_JoinEstimate(benchmark::State& state) {
  CostModel model(DatabaseStats::Compute(BasketsDb()));
  ConjunctiveQuery pair = bench::MustOk(
      ParseRule("answer(B) :- baskets(B,$1) AND baskets(B,$2) AND $1 < $2"));
  double est = 0;
  for (auto _ : state) {
    est = model.EstimateCq(pair).result_rows;
    bench::ConsumeScalar(est);
  }
  // Actual bindings of the pair query (computed once).
  static const std::size_t kActual = [] {
    QueryFlock flock = bench::MustFlock(
        "answer(B) :- baskets(B,$1) AND baskets(B,$2) AND $1 < $2",
        FilterCondition::MinSupport(1));
    FlockEvalInfo info;
    bench::MustOk(EvaluateFlock(flock, BasketsDb(), {}, {}, nullptr, &info));
    return info.answer_rows;
  }();
  state.counters["estimated"] = est;
  state.counters["actual"] = static_cast<double>(kActual);
}

void BM_CostModel_StatsShallow(benchmark::State& state) {
  for (auto _ : state) {
    DatabaseStats stats = DatabaseStats::Compute(BasketsDb());
    benchmark::DoNotOptimize(stats);
  }
}

void BM_CostModel_StatsDetailed(benchmark::State& state) {
  for (auto _ : state) {
    DatabaseStats stats = DatabaseStats::Compute(BasketsDb(), true);
    benchmark::DoNotOptimize(stats);
  }
}

#define QF_CM_ARGS ->Arg(10)->Arg(20)->Arg(40)->Arg(80)

BENCHMARK(BM_CostModel_CoarseSurvivors) QF_CM_ARGS;
BENCHMARK(BM_CostModel_ProfiledSurvivors) QF_CM_ARGS;
BENCHMARK(BM_CostModel_JoinEstimate);
BENCHMARK(BM_CostModel_StatsShallow)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_CostModel_StatsDetailed)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace qf

BENCHMARK_MAIN();
