// Experiment E8 — Fig. 10 (Future Work): weighted market baskets with a
// monotone SUM filter.
//
//   answer(B,W) :- baskets(B,$1) AND baskets(B,$2) AND importance(B,W)
//   SUM(answer.W) >= t
//
// The a-priori argument carries over to any monotone filter: an item can
// only appear in a heavy pair if its own weighted support is heavy, so the
// singleton prefilter stays legal (plan/legality.h accepts it) and sound.
// Expected shape: the prefilter wins, growing with the threshold.
#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "flocks/eval.h"
#include "optimizer/executor_support.h"
#include "plan/plan.h"
#include "workload/basket_gen.h"

namespace qf {
namespace {

constexpr const char* kWeightedQuery =
    "answer(B,W) :- baskets(B,$1) AND baskets(B,$2) AND importance(B,W) "
    "AND $1 < $2";

const Database& WeightedDb() {
  static const Database* db = [] {
    BasketConfig config;
    config.n_baskets = 12000;
    config.n_items = 6000;
    config.avg_basket_size = 8;
    config.zipf_theta = 0.5;
    config.topic_locality = 0.35;
    config.n_topics = 120;
    config.seed = 53;
    auto* out = new Database;
    out->PutRelation(GenerateBaskets(config));
    out->PutRelation(GenerateImportance(config, /*mean_weight=*/1.0));
    return out;
  }();
  return *db;
}

QueryFlock WeightedFlock(double threshold) {
  return bench::MustFlock(
      kWeightedQuery,
      FilterCondition{FilterAgg::kSum, CompareOp::kGe, threshold,
                      /*agg_head_index=*/1});
}

void BM_Fig10_Direct(benchmark::State& state) {
  QueryFlock flock = WeightedFlock(static_cast<double>(state.range(0)));
  std::size_t pairs = 0;
  for (auto _ : state) {
    Relation result = bench::MustOk(EvaluateFlock(flock, WeightedDb()));
    pairs = result.size();
    benchmark::DoNotOptimize(result);
  }
  state.counters["pairs"] = static_cast<double>(pairs);
}

void BM_Fig10_MonotonePrefilter(benchmark::State& state) {
  QueryFlock flock = WeightedFlock(static_cast<double>(state.range(0)));
  // Each prefilter keeps one baskets subgoal plus importance, so the SUM
  // bound applies per item.
  auto ok1 = bench::MustOk(
      MakeFilterStep(flock, "ok1", {"1"}, std::vector<std::size_t>{0, 2}));
  auto ok2 = bench::MustOk(
      MakeFilterStep(flock, "ok2", {"2"}, std::vector<std::size_t>{1, 2}));
  QueryPlan plan = bench::MustOk(PlanWithPrefilters(flock, {ok1, ok2}));
  const DatabaseStats stats = DatabaseStats::Compute(WeightedDb());
  std::size_t pairs = 0, peak = 0;
  for (auto _ : state) {
    PlanExecInfo info;
    Relation result = bench::MustOk(
        ExecutePlanOptimized(plan, flock, WeightedDb(), stats, {}, &info));
    pairs = result.size();
    peak = info.total_peak_rows;
    benchmark::DoNotOptimize(result);
  }
  state.counters["pairs"] = static_cast<double>(pairs);
  state.counters["peak_rows"] = static_cast<double>(peak);
}

#define QF_FIG10_ARGS \
  ->Arg(20)->Arg(40)->Arg(80)->Unit(benchmark::kMillisecond)

BENCHMARK(BM_Fig10_Direct) QF_FIG10_ARGS;
BENCHMARK(BM_Fig10_MonotonePrefilter) QF_FIG10_ARGS;

}  // namespace
}  // namespace qf

BENCHMARK_MAIN();
