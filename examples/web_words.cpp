// Strongly connected words in a web corpus (paper Ex. 2.3 / Fig. 4): a
// *union* flock counting, for each word pair, title co-occurrences plus
// anchor-to-target-title occurrences. Demonstrates unions of conjunctive
// queries and the union prefilter of §3.4 / Ex. 3.3.
//
// Run:  ./web_words
#include <chrono>
#include <cstdio>

#include "flocks/eval.h"
#include "plan/executor.h"
#include "optimizer/executor_support.h"
#include "workload/web_gen.h"

namespace {

double MillisSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

constexpr const char* kQuery = R"(
    answer(D) :- inTitle(D,$1) AND inTitle(D,$2) AND $1 < $2
    answer(A) :- link(A,D1,D2) AND inAnchor(A,$1) AND inTitle(D2,$2)
                 AND $1 < $2
    answer(A) :- link(A,D1,D2) AND inAnchor(A,$2) AND inTitle(D2,$1)
                 AND $1 < $2
)";

}  // namespace

int main() {
  qf::WebConfig config;
  config.n_docs = 12000;
  config.n_words = 15000;
  config.n_anchors = 20000;
  config.words_per_title = 6;
  config.words_per_anchor = 2;
  config.word_theta = 0.4;
  config.seed = 3;
  qf::Database db = qf::GenerateWeb(config);
  std::printf("web corpus: %zu inTitle, %zu inAnchor, %zu link rows\n\n",
              db.Get("inTitle").size(), db.Get("inAnchor").size(),
              db.Get("link").size());

  auto flock = qf::MakeFlock(kQuery, qf::FilterCondition::MinSupport(20));
  if (!flock.ok()) {
    std::fprintf(stderr, "%s\n", flock.status().ToString().c_str());
    return 1;
  }
  std::printf("%s\n", flock->ToString().c_str());

  auto t0 = std::chrono::steady_clock::now();
  auto direct = qf::EvaluateFlock(*flock, db);
  double direct_ms = MillisSince(t0);
  if (!direct.ok()) {
    std::fprintf(stderr, "%s\n", direct.status().ToString().c_str());
    return 1;
  }
  std::printf("direct evaluation: %zu strongly connected word pairs in "
              "%.1f ms\n",
              direct->size(), direct_ms);

  // Example 3.3's union prefilter on $1: a word qualifies only if its
  // title appearances + anchor appearances + linked-title appearances
  // reach the threshold. (And symmetrically for $2.)
  auto ok1 = qf::MakeFilterStep(
      *flock, "ok1", {"1"},
      {std::vector<std::size_t>{0},      // inTitle(D,$1)
       std::vector<std::size_t>{1},      // inAnchor(A,$1)
       std::vector<std::size_t>{0, 2}},  // link(...) AND inTitle(D2,$1)
      {});
  auto ok2 = qf::MakeFilterStep(
      *flock, "ok2", {"2"},
      {std::vector<std::size_t>{1},      // inTitle(D,$2)
       std::vector<std::size_t>{0, 2},   // link(...) AND inTitle(D2,$2)
       std::vector<std::size_t>{1}},     // inAnchor(A,$2)
      {});
  if (!ok1.ok() || !ok2.ok()) {
    std::fprintf(stderr, "step error: %s %s\n",
                 ok1.status().ToString().c_str(),
                 ok2.status().ToString().c_str());
    return 1;
  }
  auto plan = qf::PlanWithPrefilters(*flock, {*ok1, *ok2});
  std::printf("\nunion-prefilter plan:\n%s\n",
              plan->ToString(flock->filter).c_str());

  const qf::DatabaseStats stats = qf::DatabaseStats::Compute(db);
  t0 = std::chrono::steady_clock::now();
  qf::PlanExecInfo info;
  auto planned =
      qf::ExecutePlanOptimized(*plan, *flock, db, stats, {}, &info);
  double plan_ms = MillisSince(t0);
  if (!planned.ok()) {
    std::fprintf(stderr, "%s\n", planned.status().ToString().c_str());
    return 1;
  }
  std::printf("plan execution: %zu pairs in %.1f ms (%.1fx vs direct)\n",
              planned->size(), plan_ms, direct_ms / plan_ms);
  for (const qf::StepExecInfo& step : info.steps) {
    std::printf("  %-6s %6zu survivors, peak %8zu rows\n",
                step.step_name.c_str(), step.result_rows, step.peak_rows);
  }

  bool agree = planned->size() == direct->size();
  std::printf("\nplan result %s direct result\n",
              agree ? "matches" : "DIFFERS FROM");

  qf::Relation preview = *direct;
  preview.SortRows();
  std::printf("\nsample word pairs:\n%s", preview.ToString(5).c_str());
  return agree ? 0 : 1;
}
