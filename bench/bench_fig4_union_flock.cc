// Experiment E4 — Fig. 4 / Example 3.3: the strongly-connected-words
// *union* flock, and union prefilters.
//
// Per §3.4, a union flock can only be pruned by a union of per-disjunct
// safe subqueries: a word survives only if its summed appearances (in
// titles, in anchors, in linked-to titles) reach the threshold. The bench
// compares direct evaluation of the three-disjunct union against the plan
// with union prefilters on $1 and $2, across support thresholds.
// Expected shape: the prefilter plan wins, more at higher support.
#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "flocks/eval.h"
#include "optimizer/executor_support.h"
#include "plan/plan.h"
#include "workload/web_gen.h"

namespace qf {
namespace {

constexpr const char* kUnionQuery = R"(
    answer(D) :- inTitle(D,$1) AND inTitle(D,$2) AND $1 < $2
    answer(A) :- link(A,D1,D2) AND inAnchor(A,$1) AND inTitle(D2,$2)
                 AND $1 < $2
    answer(A) :- link(A,D1,D2) AND inAnchor(A,$2) AND inTitle(D2,$1)
                 AND $1 < $2
)";

const Database& WebDb() {
  static const Database* db = [] {
    WebConfig config;
    config.n_docs = 8000;
    config.n_words = 30000;
    config.n_anchors = 14000;
    config.words_per_title = 6;
    config.words_per_anchor = 2;
    config.word_theta = 0.4;
    config.topic_locality = 0.5;
    config.n_topics = 150;
    config.seed = 23;
    return new Database(GenerateWeb(config));
  }();
  return *db;
}

QueryPlan UnionPrefilterPlan(const QueryFlock& flock) {
  // Per-disjunct subqueries for $1 and $2 (see Ex. 3.3). Disjunct subgoal
  // layout: d0 = {inTitle($1), inTitle($2), cmp};
  // d1 = {link, inAnchor($1), inTitle($2), cmp};
  // d2 = {link, inAnchor($2), inTitle($1), cmp}.
  auto ok1 = bench::MustOk(MakeFilterStep(
      flock, "ok1", {"1"},
      {std::vector<std::size_t>{0}, std::vector<std::size_t>{1},
       std::vector<std::size_t>{0, 2}}));
  auto ok2 = bench::MustOk(MakeFilterStep(
      flock, "ok2", {"2"},
      {std::vector<std::size_t>{1}, std::vector<std::size_t>{0, 2},
       std::vector<std::size_t>{1}}));
  return bench::MustOk(PlanWithPrefilters(flock, {ok1, ok2}));
}

void BM_Fig4_DirectUnion(benchmark::State& state) {
  QueryFlock flock = bench::MustFlock(
      kUnionQuery, FilterCondition::MinSupport(state.range(0)));
  std::size_t pairs = 0;
  for (auto _ : state) {
    Relation result = bench::MustOk(EvaluateFlock(flock, WebDb()));
    pairs = result.size();
    benchmark::DoNotOptimize(result);
  }
  state.counters["pairs"] = static_cast<double>(pairs);
}

void BM_Fig4_UnionPrefilter(benchmark::State& state) {
  QueryFlock flock = bench::MustFlock(
      kUnionQuery, FilterCondition::MinSupport(state.range(0)));
  QueryPlan plan = UnionPrefilterPlan(flock);
  const DatabaseStats stats = DatabaseStats::Compute(WebDb());
  std::size_t pairs = 0, peak = 0;
  for (auto _ : state) {
    PlanExecInfo info;
    Relation result = bench::MustOk(
        ExecutePlanOptimized(plan, flock, WebDb(), stats, {}, &info));
    pairs = result.size();
    peak = info.total_peak_rows;
    benchmark::DoNotOptimize(result);
  }
  state.counters["pairs"] = static_cast<double>(pairs);
  state.counters["peak_rows"] = static_cast<double>(peak);
}

#define QF_FIG4_ARGS ->Arg(20)->Arg(40)->Arg(80)->Unit(benchmark::kMillisecond)

BENCHMARK(BM_Fig4_DirectUnion) QF_FIG4_ARGS;
BENCHMARK(BM_Fig4_UnionPrefilter) QF_FIG4_ARGS;

}  // namespace
}  // namespace qf

BENCHMARK_MAIN();
