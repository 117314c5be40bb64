// The "pathological" path-query flock (paper Ex. 4.3 / Figs. 6-7): which
// nodes $1 have at least 20 successors X from which a path of length n
// extends? The space of plans grows without bound; the (n+1)-step cascade
// plan of Fig. 7 keeps each step cheap by re-filtering $1 with one more
// arc of lookahead at a time.
//
// Run:  ./graph_paths
#include <chrono>
#include <cstdio>
#include <string>

#include "flocks/eval.h"
#include "optimizer/plan_search.h"
#include "plan/executor.h"
#include "optimizer/executor_support.h"
#include "workload/graph_gen.h"

namespace {

double MillisSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

// Builds the Fig. 6 query for path length n:
//   answer(X) :- arc($1,X) AND arc(X,Y1) AND ... AND arc(Y[n-1],Yn)
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

}  // namespace

int main() {
  // Join growth is ~avg_out_degree per extra arc, so keep the degree
  // modest: the point is the cascade's pruning, not raw scale.
  qf::GraphConfig config;
  config.n_nodes = 1200;
  config.avg_out_degree = 6;
  config.target_theta = 0.9;
  config.seed = 4;
  qf::Database db;
  db.PutRelation(qf::GenerateGraph(config));
  std::printf("graph: %u nodes, %zu arcs\n\n", config.n_nodes,
              db.Get("arc").size());

  std::printf("%-4s %-14s %-14s %-9s %s\n", "n", "direct(ms)",
              "cascade(ms)", "speedup", "answers");
  for (int n = 1; n <= 3; ++n) {
    auto flock = qf::MakeFlock(PathQuery(n),
                               qf::FilterCondition::MinSupport(8));
    if (!flock.ok()) {
      std::fprintf(stderr, "%s\n", flock.status().ToString().c_str());
      return 1;
    }

    auto t0 = std::chrono::steady_clock::now();
    auto direct = qf::EvaluateFlock(*flock, db);
    double direct_ms = MillisSince(t0);
    if (!direct.ok()) {
      std::fprintf(stderr, "%s\n", direct.status().ToString().c_str());
      return 1;
    }

    // The Fig. 7 cascade: step k keeps the first k+1 subgoals and
    // references step k-1.
    std::vector<std::vector<std::size_t>> prefixes;
    for (int k = 1; k <= n; ++k) {
      std::vector<std::size_t> prefix;
      for (int i = 0; i < k; ++i) prefix.push_back(i);
      prefixes.push_back(prefix);
    }
    auto cascade = qf::CascadePlan(*flock, prefixes);
    if (!cascade.ok()) {
      std::fprintf(stderr, "%s\n", cascade.status().ToString().c_str());
      return 1;
    }
    const qf::DatabaseStats stats = qf::DatabaseStats::Compute(db);
    t0 = std::chrono::steady_clock::now();
    auto planned = qf::ExecutePlanOptimized(*cascade, *flock, db, stats);
    double cascade_ms = MillisSince(t0);
    if (!planned.ok()) {
      std::fprintf(stderr, "%s\n", planned.status().ToString().c_str());
      return 1;
    }

    bool agree = planned->size() == direct->size();
    std::printf("%-4d %-14.1f %-14.1f %-9.1f %zu%s\n", n, direct_ms,
                cascade_ms, direct_ms / cascade_ms, direct->size(),
                agree ? "" : "  MISMATCH");
    if (!agree) return 1;
  }

  std::printf("\nThe cascade plan of Fig. 7 for n = 3:\n");
  auto flock = qf::MakeFlock(PathQuery(3),
                             qf::FilterCondition::MinSupport(8));
  auto cascade = qf::CascadePlan(*flock, {{0}, {0, 1}, {0, 1, 2}});
  std::printf("%s", cascade->ToString(flock->filter).c_str());
  return 0;
}
