// Experiment E-PR7 — incremental streaming evaluation vs full recompute.
//
// On the Fig. 2 retail workload (20k baskets, ~190k rows after dedup),
// measures what a RUN costs after a delta batch of N rows lands:
//   * FullRecompute   — the ordinary flock evaluator over the whole
//                       relation (what every RUN paid before PR 7);
//   * DeltaUpdate     — IncrementalEvaluator's delta path: evaluate only
//                       the delta bindings against the cached state,
//                       absorb, serve (each timed iteration appends a
//                       fresh batch outside the timer, then runs);
//   * CachedServe     — the no-change fast path (re-filter + sort of the
//                       cached group table), the RUN-after-RUN cost.
// Args are the delta row count: 1, 10, 100, and 2000 (~1% of the base
// relation — the acceptance point: DeltaUpdate must beat FullRecompute
// by >= 5x there on the medians of --benchmark_repetitions=5, which this
// binary's exit status enforces). DeltaUpdate grows the
// relation by N rows per iteration, so its numbers are (slightly)
// conservative — late iterations probe a larger base than FullRecompute
// ever sees.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>

#include "bench/bench_util.h"
#include "common/check.h"
#include "flocks/eval.h"
#include "flocks/incremental_eval.h"
#include "relational/database.h"
#include "relational/relation.h"
#include "workload/basket_gen.h"

namespace qf {
namespace {

constexpr const char* kPairQuery =
    "answer(B) :- baskets(B,$1) AND baskets(B,$2) AND $1 < $2";
constexpr std::int64_t kSupport = 50;   // mid-range Fig. 2 threshold
constexpr int kDeltaBasketSize = 10;    // delta rows arrive as ~avg baskets
constexpr int kDeltaBidBase = 1000000;  // past every generated basket id

BasketConfig RetailConfig() {
  BasketConfig config;  // identical to bench_fig2_market_basket.cc
  config.n_baskets = 20000;
  config.n_items = 3000;
  config.avg_basket_size = 10;
  config.zipf_theta = 0.75;
  config.topic_locality = 0.35;
  config.n_topics = 150;
  config.seed = 7;
  return config;
}

// Copying a Database copies shared_ptr handles, so every benchmark gets
// a cheap private copy it can append to without perturbing the others.
Database RetailDb() {
  static const Database* db = [] {
    auto* out = new Database;
    out->PutRelation(GenerateBaskets(RetailConfig()));
    return out;
  }();
  return *db;
}

// A batch of `rows` fresh (BID, Item) rows shaped like arriving baskets:
// kDeltaBasketSize items per new basket id, items cycling the catalog.
// `*counter` persists across batches so every batch is disjoint from the
// base and from earlier batches (the append dedups nothing away).
Relation FreshDelta(int rows, std::int64_t* counter) {
  Relation delta("delta", Schema({"BID", "Item"}));
  for (int i = 0; i < rows; ++i) {
    std::int64_t n = (*counter)++;
    delta.AddRow({Value(kDeltaBidBase + n / kDeltaBasketSize),
                  Value(n % RetailConfig().n_items)});
  }
  return delta;
}

// Mirrors the shell's LOAD ... APPEND: merge, republish, record lineage
// (when `inc` is non-null) so the evaluator can take the delta path.
void ApplyDelta(Database& db, IncrementalEvaluator* inc,
                const Relation& delta) {
  std::shared_ptr<const Relation> old = db.GetShared("baskets");
  Result<Relation> merged = AppendRelation(*old, delta);
  QF_CHECK(merged.ok());
  db.PutRelation(std::move(*merged));
  if (inc != nullptr) {
    inc->RecordAppend("baskets", std::move(old), db.GetShared("baskets"));
  }
}

void BM_Incr_FullRecompute(benchmark::State& state) {
  Database db = RetailDb();
  std::int64_t counter = 0;
  // One delta lands first so both sides evaluate a same-shaped relation.
  ApplyDelta(db, nullptr, FreshDelta(static_cast<int>(state.range(0)),
                                     &counter));
  QueryFlock flock =
      bench::MustFlock(kPairQuery, FilterCondition::MinSupport(kSupport));
  std::size_t assignments = 0;
  for (auto _ : state) {
    Relation result = bench::MustOk(EvaluateFlock(flock, db));
    assignments = result.size();
    benchmark::DoNotOptimize(result);
  }
  state.counters["assignments"] = static_cast<double>(assignments);
}

void BM_Incr_DeltaUpdate(benchmark::State& state) {
  Database db = RetailDb();
  QueryFlock flock =
      bench::MustFlock(kPairQuery, FilterCondition::MinSupport(kSupport));
  std::map<std::string, Relation> no_views;
  IncrementalEvaluator inc;
  Relation served;
  IncrementalRunInfo info;
  QF_CHECK(
      inc.Run("pairs", flock, db, no_views, 0, {}, &served, &info).ok());
  QF_CHECK(info.served && info.decision == "build");
  std::int64_t counter = 0;
  std::size_t assignments = 0;
  for (auto _ : state) {
    state.PauseTiming();
    ApplyDelta(db, &inc,
               FreshDelta(static_cast<int>(state.range(0)), &counter));
    state.ResumeTiming();
    QF_CHECK(
        inc.Run("pairs", flock, db, no_views, 0, {}, &served, &info).ok());
    QF_CHECK(info.served && info.decision.rfind("delta", 0) == 0);
    assignments = served.size();
    bench::ConsumeScalar(assignments);
  }
  state.counters["assignments"] = static_cast<double>(assignments);
  state.counters["state_bytes"] = static_cast<double>(info.state_bytes);
}

void BM_Incr_CachedServe(benchmark::State& state) {
  Database db = RetailDb();
  QueryFlock flock =
      bench::MustFlock(kPairQuery, FilterCondition::MinSupport(kSupport));
  std::map<std::string, Relation> no_views;
  IncrementalEvaluator inc;
  Relation served;
  IncrementalRunInfo info;
  QF_CHECK(
      inc.Run("pairs", flock, db, no_views, 0, {}, &served, &info).ok());
  QF_CHECK(info.served && info.decision == "build");
  std::size_t assignments = 0;
  for (auto _ : state) {
    QF_CHECK(
        inc.Run("pairs", flock, db, no_views, 0, {}, &served, &info).ok());
    QF_CHECK(info.served && info.decision == "cached");
    assignments = served.size();
    bench::ConsumeScalar(assignments);
  }
  state.counters["assignments"] = static_cast<double>(assignments);
}

#define QF_INCR_ARGS \
  ->Arg(1)->Arg(10)->Arg(100)->Arg(2000)->Unit(benchmark::kMillisecond)

BENCHMARK(BM_Incr_FullRecompute) QF_INCR_ARGS;
BENCHMARK(BM_Incr_DeltaUpdate) QF_INCR_ARGS;
BENCHMARK(BM_Incr_CachedServe)->Unit(benchmark::kMillisecond);

// The acceptance gate: exits non-zero when the median FullRecompute at
// the ~1% delta is less than 5x the median DeltaUpdate. A run without
// repetitions, or one filtered away from either benchmark, has no
// medians to judge and says so.
bool IncrementalSpeedupHolds(const bench::RunTimes& t) {
  auto full = t.find("BM_Incr_FullRecompute/2000_median");
  auto delta = t.find("BM_Incr_DeltaUpdate/2000_median");
  if (full == t.end() || delta == t.end()) {
    std::printf("incremental gate not evaluated: it reads the 2000-row "
                "medians of --benchmark_repetitions=5\n");
    return true;
  }
  double ratio = full->second / delta->second;
  std::printf("1%%-delta speedup (medians): %.1fx (gate >= 5.0x)\n", ratio);
  return ratio >= 5.0;
}

}  // namespace
}  // namespace qf

int main(int argc, char** argv) {
  return qf::bench::RunWithGate(argc, argv, qf::IncrementalSpeedupHolds);
}
