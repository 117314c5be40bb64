#include "optimizer/bandit.h"

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <set>

#include "optimizer/join_order.h"

namespace qf {
namespace {

// FNV-1a, the same everywhere so context keys are stable across
// processes (they are persisted in the catalog).
constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

void HashBytes(std::uint64_t& h, std::string_view s) {
  for (unsigned char c : s) {
    h ^= c;
    h *= kFnvPrime;
  }
}

void HashU64(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (i * 8)) & 0xff;
    h *= kFnvPrime;
  }
}

// Coarse log2 bucket for magnitudes (0 for anything below 1).
int Log2Bucket(double v) {
  if (!(v >= 1.0)) return 0;
  return std::ilogb(v);
}

void HashTerm(std::uint64_t& h, const Term& term) {
  HashU64(h, static_cast<std::uint64_t>(term.kind()));
  // Parameter names are part of the shape (which positions share a
  // parameter matters); variable names are alpha-renamable noise.
  if (term.is_parameter()) HashBytes(h, term.name());
  if (term.is_constant()) HashBytes(h, term.ToString());
}

// The identity order (what "text order" resolves to in the evaluator).
bool IsIdentityOrder(const std::vector<std::size_t>& order) {
  for (std::size_t i = 0; i < order.size(); ++i) {
    if (order[i] != i) return false;
  }
  return true;
}

}  // namespace

std::uint64_t FlockShapeHash(const QueryFlock& flock) {
  std::uint64_t h = kFnvOffset;
  HashU64(h, flock.query.disjuncts.size());
  for (const ConjunctiveQuery& cq : flock.query.disjuncts) {
    HashU64(h, cq.head_vars.size());
    HashU64(h, cq.subgoals.size());
    for (const Subgoal& s : cq.subgoals) {
      HashU64(h, static_cast<std::uint64_t>(s.kind()));
      if (s.is_relational()) {
        HashBytes(h, s.predicate());
        HashU64(h, s.args().size());
        for (const Term& t : s.args()) HashTerm(h, t);
      } else {
        HashU64(h, static_cast<std::uint64_t>(s.op()));
        HashTerm(h, s.lhs());
        HashTerm(h, s.rhs());
      }
    }
  }
  HashU64(h, static_cast<std::uint64_t>(flock.filter.agg));
  HashU64(h, static_cast<std::uint64_t>(flock.filter.cmp));
  return h;
}

PlanContext MakePlanContext(const QueryFlock& flock, const CostModel& model) {
  PlanContext ctx;
  std::uint64_t h = FlockShapeHash(flock);

  int threshold_bucket = Log2Bucket(flock.filter.threshold);
  HashU64(h, static_cast<std::uint64_t>(threshold_bucket));

  // Total rows of the distinct base relations the flock mentions, as one
  // coarse magnitude bucket: "same flock, 10x the data" is a different
  // learning cell, "same flock, +3% of appends" is the same cell.
  std::set<std::string> predicates;
  for (const ConjunctiveQuery& cq : flock.query.disjuncts) {
    for (const Subgoal& s : cq.subgoals) {
      if (s.is_relational()) predicates.insert(s.predicate());
    }
  }
  double total_rows = 0;
  for (const std::string& name : predicates) {
    const RelationStats* stats = model.stats().Find(name);
    if (stats != nullptr) total_rows += static_cast<double>(stats->rows);
  }
  int rows_bucket = Log2Bucket(total_rows);
  HashU64(h, static_cast<std::uint64_t>(rows_bucket));
  ctx.key = h;

  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "shape=%016" PRIx64 " preds=%zu support~2^%d rows~2^%d",
                FlockShapeHash(flock), predicates.size(), threshold_bucket,
                rows_bucket);
  ctx.description = buf;
  return ctx;
}

std::optional<Strategy> StrategyForMode(std::string_view mode,
                                        const DynamicKnobs& session_knobs) {
  Strategy strategy;
  if (mode == "PLAN") {
    strategy.id = "plan:search";
    strategy.kind = Strategy::Kind::kPlan;
  } else if (mode == "DIRECT") {
    strategy.id = "direct:text";
  } else if (mode == "DYNAMIC") {
    strategy.id = "dyn:text";
    strategy.kind = Strategy::Kind::kDynamic;
    strategy.knobs = session_knobs;
  } else {
    return std::nullopt;
  }
  return strategy;
}

std::vector<Strategy> EnumerateArms(const QueryFlock& flock,
                                    const CostModel& model,
                                    bool dynamic_eligible,
                                    const DynamicKnobs& session_knobs) {
  std::vector<Strategy> arms;

  Strategy plan;
  plan.id = "plan:search";
  plan.kind = Strategy::Kind::kPlan;
  arms.push_back(std::move(plan));

  std::vector<std::vector<std::size_t>> cost_orders;
  bool cost_is_text = true;
  for (const ConjunctiveQuery& cq : flock.query.disjuncts) {
    cost_orders.push_back(ChooseJoinOrder(cq, model));
    if (!IsIdentityOrder(cost_orders.back())) cost_is_text = false;
  }

  Strategy direct_cost;
  direct_cost.id = "direct:cost";
  direct_cost.kind = Strategy::Kind::kDirect;
  direct_cost.orders = cost_orders;
  arms.push_back(std::move(direct_cost));

  if (!cost_is_text) {
    Strategy direct_text;
    direct_text.id = "direct:text";
    direct_text.kind = Strategy::Kind::kDirect;
    direct_text.orders.assign(flock.query.disjuncts.size(), {});
    arms.push_back(std::move(direct_text));
  }

  if (dynamic_eligible) {
    auto dyn = [&](const char* id, const DynamicKnobs& knobs) {
      Strategy arm;
      arm.id = id;
      arm.kind = Strategy::Kind::kDynamic;
      arm.orders = {cost_orders.empty() ? std::vector<std::size_t>{}
                                        : cost_orders.front()};
      arm.knobs = knobs;
      return arm;
    };
    arms.push_back(dyn("dyn:session", session_knobs));
    // Two contrasting presets bracketing the session's setting: filter
    // eagerly even when the ratio barely clears the threshold, or only
    // when a filter would remove most of the mass. One of them wins on
    // workloads where the hand-tuned default is mis-calibrated.
    DynamicKnobs eager{2.0, 0.9, 0.05};
    DynamicKnobs cautious{0.5, 0.25, 0.4};
    if (!(session_knobs == eager)) arms.push_back(dyn("dyn:eager", eager));
    if (!(session_knobs == cautious)) {
      arms.push_back(dyn("dyn:cautious", cautious));
    }
  }
  return arms;
}

BanditChoice PlanBandit::Choose(std::uint64_t context,
                                const std::vector<Strategy>& arms) const {
  BanditChoice choice;
  const std::map<std::string, ArmStats>* cell = history_.FindContext(context);

  // Warm-up: every arm gets one play, in enumeration order.
  std::uint64_t total_plays = 0;
  for (std::size_t i = 0; i < arms.size(); ++i) {
    const ArmStats* stats =
        cell == nullptr ? nullptr : [&]() -> const ArmStats* {
          auto it = cell->find(arms[i].id);
          return it == cell->end() ? nullptr : &it->second;
        }();
    if (stats == nullptr || stats->plays == 0) {
      choice.index = i;
      choice.arm_id = arms[i].id;
      choice.exploring = true;
      choice.posterior = "warm-up: arm " + arms[i].id + " unplayed\n";
      return choice;
    }
    total_plays += stats->plays;
  }

  // All arms played: lower-confidence-bound selection on mean wall time.
  // The bonus is scaled by the observed spread of means so `exploration_`
  // is dimensionless (invariant to absolute workload speed).
  double min_mean = 0, max_mean = 0;
  for (std::size_t i = 0; i < arms.size(); ++i) {
    double mean = cell->at(arms[i].id).MeanWallMs();
    if (i == 0 || mean < min_mean) min_mean = mean;
    if (i == 0 || mean > max_mean) max_mean = mean;
  }
  double spread = max_mean - min_mean;
  if (spread <= 0) spread = min_mean * 0.1 + 1e-6;

  double best_score = 0;
  char line[192];
  for (std::size_t i = 0; i < arms.size(); ++i) {
    const ArmStats& stats = cell->at(arms[i].id);
    double mean = stats.MeanWallMs();
    double bonus =
        exploration_ * spread *
        std::sqrt(2.0 * std::log(static_cast<double>(total_plays)) /
                  static_cast<double>(stats.plays));
    double score = mean - bonus;
    std::snprintf(line, sizeof(line),
                  "  %-16s plays=%" PRIu64 " mean=%.3fms score=%.3f\n",
                  arms[i].id.c_str(), stats.plays, mean, score);
    choice.posterior += line;
    if (i == 0 || score < best_score) {
      best_score = score;
      choice.index = i;
      choice.arm_id = arms[i].id;
      choice.plays = stats.plays;
      choice.mean_wall_ms = mean;
    }
  }
  return choice;
}

}  // namespace qf
