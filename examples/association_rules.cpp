// Classic association-rule mining (§1.1) end to end, and the k-itemset
// flock plan of §4.3: mine frequent pairs *and triples* with the
// generalized a-priori plan (one FILTER step per parameter subset — the
// levelwise trick as a query plan), cross-check against the hand-coded
// a-priori miner, then derive rules with confidence and interest.
//
// Run:  ./association_rules
#include <algorithm>
#include <chrono>
#include <cstdio>

#include "apriori/apriori.h"
#include "apriori/rules.h"
#include "flocks/eval.h"
#include "optimizer/executor_support.h"
#include "optimizer/itemset_plans.h"
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
  config.n_baskets = 8000;
  config.n_items = 1500;
  config.avg_basket_size = 8;
  config.zipf_theta = 0.8;
  config.topic_locality = 0.45;
  config.n_topics = 60;
  config.seed = 11;
  qf::Database db;
  db.PutRelation(qf::GenerateBaskets(config));
  const qf::Relation& baskets = db.Get("baskets");
  std::printf("baskets: %zu rows\n\n", baskets.size());

  constexpr double kSupport = 25;

  // --- Triples via the k=3 itemset flock, with the levelwise plan. ---
  auto flock3 = qf::MakeItemsetFlock("baskets", 3, kSupport);
  if (!flock3.ok()) {
    std::fprintf(stderr, "%s\n", flock3.status().ToString().c_str());
    return 1;
  }
  std::printf("%s\n", flock3->ToString().c_str());

  auto plan = qf::ItemsetAprioriPlan(*flock3, 3, /*subset_size=*/2);
  if (!plan.ok()) {
    std::fprintf(stderr, "%s\n", plan.status().ToString().c_str());
    return 1;
  }
  std::printf("levelwise plan (pair prefilters ok_1_2, ok_1_3, ok_2_3):\n%s\n",
              plan->ToString(flock3->filter).c_str());

  auto t0 = std::chrono::steady_clock::now();
  auto direct = qf::EvaluateFlock(*flock3, db);
  double direct_ms = MillisSince(t0);
  const qf::DatabaseStats db_stats = qf::DatabaseStats::Compute(db);
  t0 = std::chrono::steady_clock::now();
  auto planned = qf::ExecutePlanOptimized(*plan, *flock3, db, db_stats);
  double plan_ms = MillisSince(t0);
  if (!direct.ok() || !planned.ok()) {
    std::fprintf(stderr, "evaluation failed\n");
    return 1;
  }
  std::printf("frequent triples: direct %zu in %.1f ms; plan %zu in %.1f ms "
              "(%.1fx)\n",
              direct->size(), direct_ms, planned->size(), plan_ms,
              direct_ms / plan_ms);

  // --- Cross-check with the hand-coded a-priori miner. ---
  auto data = qf::BasketsFromRelation(baskets, "BID", "Item");
  qf::AprioriStats stats;
  std::vector<qf::Itemset> frequent = qf::AprioriFrequentItemsets(
      *data, {.min_support = static_cast<std::size_t>(kSupport),
              .max_size = 3},
      {}, &stats);
  std::size_t triples = 0;
  for (const qf::Itemset& s : frequent) triples += s.items.size() == 3;
  std::printf("a-priori miner: %zu frequent triples", triples);
  std::printf(" (candidates per level:");
  for (std::size_t c : stats.candidates_per_level) std::printf(" %zu", c);
  std::printf(")\n");
  bool agree = triples == direct->size() && triples == planned->size();
  std::printf("flock result %s the a-priori miner\n\n",
              agree ? "matches" : "DIFFERS FROM");

  // --- Rules with confidence and interest (§1.1's three measures). ---
  std::vector<qf::AssociationRule> rules = qf::DeriveRules(
      *data, frequent, {.min_confidence = 0.6, .min_interest_deviation = 1.0});
  std::sort(rules.begin(), rules.end(),
            [](const qf::AssociationRule& a, const qf::AssociationRule& b) {
              return a.interest > b.interest;
            });
  std::printf("top rules by interest (confidence >= 0.6, interest far from "
              "1):\n");
  for (std::size_t i = 0; i < rules.size() && i < 8; ++i) {
    std::printf("  %s\n", qf::RuleToString(rules[i], *data).c_str());
  }
  std::printf("(%zu rules total)\n", rules.size());
  return agree ? 0 : 1;
}
