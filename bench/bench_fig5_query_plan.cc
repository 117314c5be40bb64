// Experiment E5 — Fig. 5 / Example 4.1: the three-step okS/okM plan for
// the medical flock versus the one-step direct plan, plus the single-
// prefilter variants discussed in the example ("Either (1) or (3) could be
// used ... (1) and (2) may both be useful").
//
// Expected shape: the third step of Fig. 5 is *easier, not harder* than
// the original query — the okS/okM subgoals join early and shrink every
// later intermediate (the peak_rows counter makes that visible directly).
#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "flocks/eval.h"
#include "optimizer/executor_support.h"
#include "optimizer/join_order.h"
#include "plan/plan.h"
#include "workload/medical_gen.h"

namespace qf {
namespace {

constexpr const char* kQuery =
    "answer(P) :- exhibits(P,$s) AND treatments(P,$m) AND "
    "diagnoses(P,D) AND NOT causes(D,$s)";

const Database& MedicalDb() {
  static const Database* db = [] {
    MedicalConfig config;
    config.n_patients = 25000;
    config.n_diseases = 80;
    config.n_symptoms = 10000;
    config.n_medicines = 6000;
    config.symptoms_per_patient = 5;
    config.medicines_per_patient = 3;
    config.symptom_theta = 0.5;
    config.medicine_theta = 0.5;
    config.seed = 31;
    return new Database(GenerateMedical(config));
  }();
  return *db;
}

QueryFlock MedicalFlock() {
  return bench::MustFlock(kQuery, FilterCondition::MinSupport(20));
}

void Run(benchmark::State& state, const QueryPlan& plan) {
  QueryFlock flock = MedicalFlock();
  const DatabaseStats stats = DatabaseStats::Compute(MedicalDb());
  std::size_t pairs = 0, peak = 0;
  for (auto _ : state) {
    PlanExecInfo info;
    Relation result = bench::MustOk(
        ExecutePlanOptimized(plan, flock, MedicalDb(), stats, {}, &info));
    pairs = result.size();
    peak = info.total_peak_rows;
    benchmark::DoNotOptimize(result);
  }
  state.counters["pairs"] = static_cast<double>(pairs);
  state.counters["peak_rows"] = static_cast<double>(peak);
}

void BM_Fig5_OneStepDirect(benchmark::State& state) {
  const Database& db = MedicalDb();
  QueryFlock flock = MedicalFlock();
  CostModel model(DatabaseStats::Compute(db));
  FlockEvalOptions options = ChooseJoinOrders(flock, model);
  std::size_t pairs = 0, peak = 0;
  for (auto _ : state) {
    FlockEvalInfo info;
    Relation result =
        bench::MustOk(EvaluateFlock(flock, db, options, {}, nullptr, &info));
    pairs = result.size();
    peak = info.peak_rows;
    benchmark::DoNotOptimize(result);
  }
  state.counters["pairs"] = static_cast<double>(pairs);
  state.counters["peak_rows"] = static_cast<double>(peak);
}

void BM_Fig5_OkSOnly(benchmark::State& state) {
  QueryFlock flock = MedicalFlock();
  auto okS = bench::MustOk(
      MakeFilterStep(flock, "okS", {"s"}, std::vector<std::size_t>{0}));
  Run(state, bench::MustOk(PlanWithPrefilters(flock, {okS})));
}

void BM_Fig5_OkMOnly(benchmark::State& state) {
  QueryFlock flock = MedicalFlock();
  auto okM = bench::MustOk(
      MakeFilterStep(flock, "okM", {"m"}, std::vector<std::size_t>{1}));
  Run(state, bench::MustOk(PlanWithPrefilters(flock, {okM})));
}

void BM_Fig5_Full(benchmark::State& state) {
  QueryFlock flock = MedicalFlock();
  auto okS = bench::MustOk(
      MakeFilterStep(flock, "okS", {"s"}, std::vector<std::size_t>{0}));
  auto okM = bench::MustOk(
      MakeFilterStep(flock, "okM", {"m"}, std::vector<std::size_t>{1}));
  Run(state, bench::MustOk(PlanWithPrefilters(flock, {okS, okM})));
}

BENCHMARK(BM_Fig5_OneStepDirect)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Fig5_OkSOnly)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Fig5_OkMOnly)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Fig5_Full)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace qf

BENCHMARK_MAIN();
