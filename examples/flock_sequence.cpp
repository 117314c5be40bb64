// Maximal frequent itemsets via a *sequence of query flocks* — the
// paper's §2.2 footnote 2: "the set of maximal sets of items ... would be
// expressed as a sequence of query flocks for increasing cardinalities,
// with each flock depending on the result of the previous flock."
//
// Level k's plan reuses level k-1's materialized answer for every
// (k-1)-subset prefilter step, so each flock literally depends on the
// previous one; a frequent k-set then disqualifies its (k-1)-subsets from
// being maximal. Cross-checked against the hand-coded a-priori miner.
//
// Run:  ./flock_sequence
#include <chrono>
#include <cstdio>

#include "apriori/apriori.h"
#include "mining/maximal.h"
#include "workload/basket_gen.h"

namespace {

double MillisSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

int main() {
  qf::BasketConfig config;
  config.n_baskets = 4000;
  config.n_items = 400;
  config.avg_basket_size = 7;
  config.zipf_theta = 0.8;
  config.topic_locality = 0.55;
  config.n_topics = 20;
  config.seed = 31;
  qf::Database db;
  db.PutRelation(qf::GenerateBaskets(config));
  std::printf("baskets: %zu rows\n\n", db.Get("baskets").size());

  constexpr double kSupport = 20;
  const qf::DatabaseStats stats = qf::DatabaseStats::Compute(db);
  auto t0 = std::chrono::steady_clock::now();
  auto result = qf::MaximalFrequentItemsets(
      db, stats, "baskets", {.min_support = kSupport, .max_size = 6});
  double ms = MillisSince(t0);
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
    return 1;
  }

  std::printf("flock sequence at support %.0f ran %zu levels in %.1f ms\n",
              kSupport, result->levels, ms);
  std::printf("frequent itemsets per level:");
  for (std::size_t n : result->frequent_per_level) std::printf(" %zu", n);
  std::printf("\n\nmaximal frequent itemsets (%zu):\n",
              result->maximal.size());
  std::size_t shown = 0;
  for (const qf::Tuple& t : result->maximal) {
    if (shown++ >= 12) {
      std::printf("  ... (%zu more)\n", result->maximal.size() - 12);
      break;
    }
    std::printf("  %s\n", qf::TupleToString(t).c_str());
  }

  // Cross-check against the specialized miner.
  auto data = qf::BasketsFromRelation(db.Get("baskets"), "BID", "Item");
  std::vector<qf::Itemset> frequent = qf::AprioriFrequentItemsets(
      *data, {.min_support = static_cast<std::size_t>(kSupport)});
  std::size_t frequent_total = frequent.size();
  std::size_t flock_total = 0;
  for (std::size_t n : result->frequent_per_level) flock_total += n;
  std::printf("\nfrequent itemsets: flock sequence %zu vs a-priori miner "
              "%zu — %s\n",
              flock_total, frequent_total,
              flock_total == frequent_total ? "match" : "MISMATCH");
  return flock_total == frequent_total ? 0 : 1;
}
