// Experiment E3 — Fig. 3 / Example 3.2: which of the medical flock's safe
// subqueries pay off, as the data statistics vary.
//
// The paper (Ex. 3.2) argues the choice among subqueries
//   (1) okS: exhibits(P,$s)                — filter rare symptoms,
//   (2) okM: treatments(P,$m)              — filter rare medicines,
//   (4) okPair: exhibits AND treatments    — filter ($s,$m) pairs,
// "depends on the statistics of the situation": prefilters pay when rare
// symptoms/medicines carry much of the data. The sweep varies the Zipf
// exponent of symptom popularity — flatter (arg 0) means more mass in the
// rare tail and bigger prefilter wins; more skewed (arg 2) means frequent
// symptoms dominate and prefilters approach break-even.
#include <benchmark/benchmark.h>

#include <map>

#include "bench/bench_util.h"
#include "flocks/eval.h"
#include "optimizer/executor_support.h"
#include "optimizer/join_order.h"
#include "optimizer/plan_search.h"
#include "workload/medical_gen.h"

namespace qf {
namespace {

constexpr const char* kQuery =
    "answer(P) :- exhibits(P,$s) AND treatments(P,$m) AND "
    "diagnoses(P,D) AND NOT causes(D,$s)";
constexpr double kSupport = 10;
constexpr double kThetas[] = {0.45, 0.8, 1.15};

const Database& MedicalDb(int theta_index) {
  static std::map<int, const Database*>* cache =
      new std::map<int, const Database*>;
  auto it = cache->find(theta_index);
  if (it == cache->end()) {
    MedicalConfig config;
    config.n_patients = 15000;
    config.n_diseases = 60;
    config.n_symptoms = 8000;
    config.n_medicines = 4000;
    config.symptoms_per_patient = 5;
    config.medicines_per_patient = 3;
    config.symptom_theta = kThetas[theta_index];
    config.medicine_theta = kThetas[theta_index];
    config.seed = 17;
    it = cache->emplace(theta_index, new Database(GenerateMedical(config)))
             .first;
  }
  return *it->second;
}

QueryFlock MedicalFlock() {
  return bench::MustFlock(kQuery, FilterCondition::MinSupport(kSupport));
}

// kept-subgoal sets, per Ex. 3.2 numbering: 0=exhibits 1=treatments
// 2=diagnoses 3=NOT causes.
QueryPlan MakePlan(const QueryFlock& flock,
                   const std::vector<std::pair<std::string,
                                               std::vector<std::size_t>>>&
                       prefilter_specs) {
  std::vector<FilterStep> steps;
  for (const auto& [name, kept] : prefilter_specs) {
    std::set<std::string> params;
    for (std::size_t i : kept) {
      for (const Term& t : flock.query.disjuncts[0].subgoals[i].terms()) {
        if (t.is_parameter()) params.insert(t.name());
      }
    }
    steps.push_back(bench::MustOk(MakeFilterStep(
        flock, name, std::vector<std::string>(params.begin(), params.end()),
        kept)));
  }
  return bench::MustOk(PlanWithPrefilters(flock, std::move(steps)));
}

void RunPlan(benchmark::State& state, const QueryPlan& plan) {
  const Database& db = MedicalDb(static_cast<int>(state.range(0)));
  QueryFlock flock = MedicalFlock();
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

void BM_Fig3_Direct(benchmark::State& state) {
  const Database& db = MedicalDb(static_cast<int>(state.range(0)));
  QueryFlock flock = MedicalFlock();
  CostModel model(DatabaseStats::Compute(db));
  FlockEvalOptions options = ChooseJoinOrders(flock, model);
  std::size_t pairs = 0;
  for (auto _ : state) {
    Relation result = bench::MustOk(EvaluateFlock(flock, db, options));
    pairs = result.size();
    benchmark::DoNotOptimize(result);
  }
  state.counters["pairs"] = static_cast<double>(pairs);
}

void BM_Fig3_OkS(benchmark::State& state) {
  RunPlan(state, MakePlan(MedicalFlock(), {{"okS", {0}}}));
}

void BM_Fig3_OkM(benchmark::State& state) {
  RunPlan(state, MakePlan(MedicalFlock(), {{"okM", {1}}}));
}

void BM_Fig3_OkSAndOkM(benchmark::State& state) {
  RunPlan(state, MakePlan(MedicalFlock(), {{"okS", {0}}, {"okM", {1}}}));
}

void BM_Fig3_OkPair(benchmark::State& state) {
  RunPlan(state, MakePlan(MedicalFlock(), {{"okPair", {0, 1}}}));
}

void BM_Fig3_Subquery3(benchmark::State& state) {
  // Subquery (3): diagnoses AND exhibits AND NOT causes — "almost the
  // entire query except for the introduction of medicines".
  RunPlan(state, MakePlan(MedicalFlock(), {{"okS3", {0, 2, 3}}}));
}

void BM_Fig3_CostChosen(benchmark::State& state) {
  const Database& db = MedicalDb(static_cast<int>(state.range(0)));
  QueryFlock flock = MedicalFlock();
  CostModel model(DatabaseStats::Compute(db));
  QueryPlan plan = bench::MustOk(SearchPlanParameterSets(flock, model));
  state.counters["steps"] = static_cast<double>(plan.steps.size());
  RunPlan(state, plan);
}

// As above but with frequency profiles (exact prefilter-survivor
// estimates, the §4.4 statistics refinement): the planner should stop
// mispicking the okPair step at head-heavy skew.
void BM_Fig3_CostChosenProfiled(benchmark::State& state) {
  const Database& db = MedicalDb(static_cast<int>(state.range(0)));
  QueryFlock flock = MedicalFlock();
  CostModel model(DatabaseStats::Compute(db, /*detailed=*/true));
  QueryPlan plan = bench::MustOk(SearchPlanParameterSets(flock, model));
  state.counters["steps"] = static_cast<double>(plan.steps.size());
  RunPlan(state, plan);
}

#define QF_FIG3_ARGS \
  ->Arg(0)->Arg(1)->Arg(2)->Unit(benchmark::kMillisecond)

BENCHMARK(BM_Fig3_Direct) QF_FIG3_ARGS;
BENCHMARK(BM_Fig3_OkS) QF_FIG3_ARGS;
BENCHMARK(BM_Fig3_OkM) QF_FIG3_ARGS;
BENCHMARK(BM_Fig3_OkSAndOkM) QF_FIG3_ARGS;
BENCHMARK(BM_Fig3_OkPair) QF_FIG3_ARGS;
BENCHMARK(BM_Fig3_Subquery3) QF_FIG3_ARGS;
BENCHMARK(BM_Fig3_CostChosen) QF_FIG3_ARGS;
BENCHMARK(BM_Fig3_CostChosenProfiled) QF_FIG3_ARGS;

}  // namespace
}  // namespace qf

BENCHMARK_MAIN();
