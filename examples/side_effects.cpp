// Mining for unexplained side-effects (paper Ex. 2.2 / Fig. 3), with the
// Fig. 5 query plan: find symptom/medicine pairs ($s,$m) such that many
// patients take $m and exhibit $s, yet $s is not caused by their disease.
//
// Demonstrates negation in the flock language, the okS/okM prefilter plan,
// and the cost-based plan chosen by heuristic 1 of §4.3.
//
// Run:  ./side_effects
#include <chrono>
#include <cstdio>

#include "flocks/eval.h"
#include "optimizer/cost_model.h"
#include "optimizer/dynamic.h"
#include "optimizer/join_order.h"
#include "optimizer/plan_search.h"
#include "plan/executor.h"
#include "optimizer/executor_support.h"
#include "workload/medical_gen.h"

namespace {

double MillisSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

int main() {
  qf::MedicalConfig config;
  config.n_patients = 30000;
  config.n_diseases = 60;
  config.n_symptoms = 20000;
  config.n_medicines = 8000;
  config.symptom_theta = 0.45;
  config.medicine_theta = 0.45;
  config.seed = 7;
  qf::Database db = qf::GenerateMedical(config);
  std::printf("medical database: %zu diagnoses, %zu exhibits, %zu "
              "treatments, %zu causes\n\n",
              db.Get("diagnoses").size(), db.Get("exhibits").size(),
              db.Get("treatments").size(), db.Get("causes").size());

  auto flock = qf::MakeFlock(
      "answer(P) :- exhibits(P,$s) AND treatments(P,$m) AND "
      "diagnoses(P,D) AND NOT causes(D,$s)",
      qf::FilterCondition::MinSupport(12));
  if (!flock.ok()) {
    std::fprintf(stderr, "%s\n", flock.status().ToString().c_str());
    return 1;
  }
  std::printf("%s\n", flock->ToString().c_str());

  qf::CostModel model(qf::DatabaseStats::Compute(db));

  // Direct evaluation with a cost-chosen join order.
  auto t0 = std::chrono::steady_clock::now();
  auto direct =
      qf::EvaluateFlock(*flock, db, qf::ChooseJoinOrders(*flock, model));
  double direct_ms = MillisSince(t0);
  if (!direct.ok()) {
    std::fprintf(stderr, "%s\n", direct.status().ToString().c_str());
    return 1;
  }
  std::printf("direct evaluation: %zu suspicious ($m,$s) pairs in %.1f ms\n",
              direct->size(), direct_ms);

  // The Fig. 5 plan, written out by hand.
  auto okS = qf::MakeFilterStep(*flock, "okS", {"s"},
                                std::vector<std::size_t>{0});
  auto okM = qf::MakeFilterStep(*flock, "okM", {"m"},
                                std::vector<std::size_t>{1});
  auto fig5 = qf::PlanWithPrefilters(*flock, {*okS, *okM});
  std::printf("\nFig. 5 plan:\n%s\n", fig5->ToString(flock->filter).c_str());

  t0 = std::chrono::steady_clock::now();
  qf::PlanExecInfo info;
  auto fig5_result =
      qf::ExecutePlanOptimized(*fig5, *flock, db, model.stats(), {}, &info);
  double fig5_ms = MillisSince(t0);
  std::printf("Fig. 5 plan: %zu pairs in %.1f ms (%.1fx vs direct)\n",
              fig5_result->size(), fig5_ms, direct_ms / fig5_ms);
  for (const qf::StepExecInfo& step : info.steps) {
    std::printf("  %-8s %6zu survivors, peak %8zu rows\n",
                step.step_name.c_str(), step.result_rows, step.peak_rows);
  }

  // What the optimizer picks on its own (heuristic 1 of §4.3).
  auto chosen = qf::SearchPlanParameterSets(*flock, model);
  std::printf("\noptimizer-chosen plan (%zu steps):\n%s\n",
              chosen->steps.size(),
              chosen->ToString(flock->filter).c_str());
  t0 = std::chrono::steady_clock::now();
  auto chosen_result =
      qf::ExecutePlanOptimized(*chosen, *flock, db, model.stats());
  double chosen_ms = MillisSince(t0);
  std::printf("chosen plan: %zu pairs in %.1f ms (%.1fx vs direct)\n",
              chosen_result->size(), chosen_ms, direct_ms / chosen_ms);

  // Dynamic filter selection (§4.4), with its decision trace.
  qf::DynamicLog dyn_log;
  t0 = std::chrono::steady_clock::now();
  auto dynamic_result = qf::DynamicEvaluate(*flock, db, {}, {}, &dyn_log);
  double dynamic_ms = MillisSince(t0);
  std::printf("\ndynamic evaluation: %zu pairs in %.1f ms (%.1fx vs "
              "direct)\n%s",
              dynamic_result->size(), dynamic_ms, direct_ms / dynamic_ms,
              qf::RenderDynamicTrace(dyn_log).c_str());

  bool agree = direct->size() == fig5_result->size() &&
               direct->size() == chosen_result->size() &&
               direct->size() == dynamic_result->size();
  std::printf("\nall strategies agree: %s\n", agree ? "yes" : "NO");

  // Show a few of the flagged pairs.
  qf::Relation preview = *direct;
  preview.SortRows();
  std::printf("\nsample findings (medicine, symptom):\n%s",
              preview.ToString(5).c_str());
  return agree ? 0 : 1;
}
