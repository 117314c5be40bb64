// Experiment E6 — Figs. 6-7 / Example 4.3: the path-query flock
//
//   answer(X) :- arc($1,X) AND arc(X,Y1) AND ... AND arc(Y[n-1],Yn)
//   COUNT(answer.X) >= s
//
// and the (n+1)-step cascade plan, which re-filters $1 with one more arc
// of lookahead per step. The plan space has no exponential bound (each
// step may reuse the previous), and this cascade is the paper's witness
// that long chains "might make a useful simplification" — expected shape:
// the cascade's advantage grows with n while the direct join blows up
// multiplicatively.
#include <benchmark/benchmark.h>

#include <string>

#include "bench/bench_util.h"
#include "flocks/eval.h"
#include "optimizer/executor_support.h"
#include "optimizer/plan_search.h"
#include "workload/graph_gen.h"

namespace qf {
namespace {

const Database& GraphDb() {
  static const Database* db = [] {
    GraphConfig config;
    config.n_nodes = 2500;
    config.avg_out_degree = 5;
    config.target_theta = 0.9;
    config.sink_fraction = 0.35;  // dangling arcs that direct joins drag along
    config.seed = 5;
    auto* out = new Database;
    out->PutRelation(GenerateGraph(config));
    return out;
  }();
  return *db;
}

std::string PathQuery(int n) {
  std::string q = "answer(X) :- arc($1,X)";
  std::string prev = "X";
  for (int i = 1; i <= n; ++i) {
    std::string next = "Y" + std::to_string(i);
    q += " AND arc(" + prev + "," + next + ")";
    prev = next;
  }
  return q;
}

QueryFlock PathFlock(int n) {
  return bench::MustFlock(PathQuery(n), FilterCondition::MinSupport(7));
}

void BM_Fig7_Direct(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  QueryFlock flock = PathFlock(n);
  std::size_t answers = 0, peak = 0;
  for (auto _ : state) {
    FlockEvalInfo info;
    Relation result =
        bench::MustOk(EvaluateFlock(flock, GraphDb(), {}, {}, nullptr, &info));
    answers = result.size();
    peak = info.peak_rows;
    benchmark::DoNotOptimize(result);
  }
  state.counters["answers"] = static_cast<double>(answers);
  state.counters["peak_rows"] = static_cast<double>(peak);
}

void BM_Fig7_Cascade(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  QueryFlock flock = PathFlock(n);
  std::vector<std::vector<std::size_t>> prefixes;
  for (int k = 1; k <= n; ++k) {
    std::vector<std::size_t> prefix;
    for (int i = 0; i < k; ++i) prefix.push_back(i);
    prefixes.push_back(prefix);
  }
  QueryPlan plan = bench::MustOk(CascadePlan(flock, prefixes));
  const DatabaseStats stats = DatabaseStats::Compute(GraphDb());
  std::size_t answers = 0, peak = 0;
  for (auto _ : state) {
    PlanExecInfo info;
    Relation result = bench::MustOk(
        ExecutePlanOptimized(plan, flock, GraphDb(), stats, {}, &info));
    answers = result.size();
    peak = info.total_peak_rows;
    benchmark::DoNotOptimize(result);
  }
  state.counters["answers"] = static_cast<double>(answers);
  state.counters["peak_rows"] = static_cast<double>(peak);
}

BENCHMARK(BM_Fig7_Direct)->DenseRange(1, 3)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Fig7_Cascade)->DenseRange(1, 3)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace qf

BENCHMARK_MAIN();
