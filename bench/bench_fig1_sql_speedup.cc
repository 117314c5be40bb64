// Experiment E1 — the §1.3 claim and Fig. 1.
//
// Paper: expressing "pairs of items in >= 20 baskets" in SQL (Fig. 1) and
// running it on a popular DBMS, versus first filtering items to those with
// >= 20 occurrences and then running the restricted query, gave a 20-fold
// speedup on newspaper word-occurrence data.
//
// Here: the same pair flock over Zipf word-occurrence data.
//   * NaiveSql        — the direct evaluator (no a-priori rewrite; what a
//                       conventional optimizer executes for Fig. 1);
//   * AprioriRewrite  — the two-prefilter plan (ok1/ok2), cost-ordered.
// Expected shape: the rewrite wins by roughly an order of magnitude; the
// deeper the support threshold cuts into the Zipf tail, the bigger the
// factor.
#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "flocks/eval.h"
#include "optimizer/executor_support.h"
#include "plan/plan.h"
#include "workload/basket_gen.h"

namespace qf {
namespace {

constexpr const char* kPairQuery =
    "answer(B) :- baskets(B,$1) AND baskets(B,$2) AND $1 < $2";

const Database& WordDb() {
  static const Database* db = [] {
    BasketConfig config;
    config.n_baskets = 8000;   // documents
    config.n_items = 30000;    // vocabulary
    config.avg_basket_size = 25;
    config.zipf_theta = 0.35;  // long tail: most words are rare
    config.topic_locality = 0.35;
    config.n_topics = 120;
    config.seed = 42;
    auto* out = new Database;
    out->PutRelation(GenerateBaskets(config));
    return out;
  }();
  return *db;
}

void BM_Fig1_NaiveSql(benchmark::State& state) {
  const Database& db = WordDb();
  QueryFlock flock = bench::MustFlock(
      kPairQuery, FilterCondition::MinSupport(state.range(0)));
  std::size_t pairs = 0, peak = 0;
  for (auto _ : state) {
    FlockEvalInfo info;
    Relation result =
        bench::MustOk(EvaluateFlock(flock, db, {}, {}, nullptr, &info));
    pairs = result.size();
    peak = info.peak_rows;
    benchmark::DoNotOptimize(result);
  }
  state.counters["pairs"] = static_cast<double>(pairs);
  state.counters["peak_rows"] = static_cast<double>(peak);
}

void BM_Fig1_AprioriRewrite(benchmark::State& state) {
  const Database& db = WordDb();
  QueryFlock flock = bench::MustFlock(
      kPairQuery, FilterCondition::MinSupport(state.range(0)));
  QueryPlan plan = [&] {
    auto ok1 = bench::MustOk(
        MakeFilterStep(flock, "ok1", {"1"}, std::vector<std::size_t>{0}));
    auto ok2 = bench::MustOk(
        MakeFilterStep(flock, "ok2", {"2"}, std::vector<std::size_t>{1}));
    return bench::MustOk(PlanWithPrefilters(flock, {ok1, ok2}));
  }();
  const DatabaseStats stats = DatabaseStats::Compute(db);
  std::size_t pairs = 0, peak = 0;
  for (auto _ : state) {
    PlanExecInfo info;
    Relation result = bench::MustOk(
        ExecutePlanOptimized(plan, flock, db, stats, {}, &info));
    pairs = result.size();
    peak = info.total_peak_rows;
    benchmark::DoNotOptimize(result);
  }
  state.counters["pairs"] = static_cast<double>(pairs);
  state.counters["peak_rows"] = static_cast<double>(peak);
}

// Support thresholds: the paper's 20, plus a shallower and deeper cut.
BENCHMARK(BM_Fig1_NaiveSql)->Arg(10)->Arg(20)->Arg(40)
    ->Unit(benchmark::kMillisecond)->MeasureProcessCPUTime();
BENCHMARK(BM_Fig1_AprioriRewrite)->Arg(10)->Arg(20)->Arg(40)
    ->Unit(benchmark::kMillisecond)->MeasureProcessCPUTime();

}  // namespace
}  // namespace qf

BENCHMARK_MAIN();
