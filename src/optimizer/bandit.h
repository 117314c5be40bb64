// Learned plan selection (ROADMAP item 4): a contextual UCB bandit that
// chooses *how* to run a flock — which safe plan shape, which join
// orders, which §4.4 dynamic-filter knobs — from the outcome history of
// earlier runs (optimizer/history.h).
//
// Scope and safety: every arm is one of the engine's existing
// legality-checked evaluation strategies (EvaluateFlock with explicit
// join orders, the §4.3 static plan search, §4.4 dynamic filtering), so
// an arm can only change *speed*, never results — the differential suite
// in tests/learned_optimizer_test.cc pins learned RUN output bit-equal
// to static mode at every thread count. The bandit ranks arms by
// *cost* (mean wall time), so UCB here is "lower confidence bound wins":
// the exploration bonus is subtracted from each arm's mean.
//
// Context: arms are compared only against history from flocks that look
// alike. The context key discretizes (a) the flock's shape — subgoal
// kinds, predicate names, parameter positions, filter shape — (b) the
// filter threshold's magnitude, and (c) the total base-relation mass,
// each as coarse log2 buckets, hashed together (FNV-1a). Repeated runs
// of a similar flock over similarly-sized data land in the same cell;
// a reload at 10x the data or a support sweep to a different decade
// starts a fresh cell instead of inheriting stale timings.
#ifndef QF_OPTIMIZER_BANDIT_H_
#define QF_OPTIMIZER_BANDIT_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "flocks/flock.h"
#include "optimizer/cost_model.h"
#include "optimizer/history.h"

namespace qf {

// The §4.4 knob preset an arm carries (mirrors DynamicOptions; kept as a
// plain struct so bandit.h does not depend on the evaluator headers).
struct DynamicKnobs {
  double aggressiveness = 1.0;
  double improvement_factor = 0.5;
  double min_removed_fraction = 0.2;

  bool operator==(const DynamicKnobs&) const = default;
};

// One way to evaluate a flock (§4): direct evaluation, a legal FILTER
// plan, or dynamic filter selection. A RUN mode word and a bandit arm are
// both spellings of a Strategy (StrategyForMode, EnumerateArms), and one
// executor runs it (Shell::Execute). `id` is the stable history key —
// renaming an arm orphans its learned history, so arm ids are part of the
// persistence contract (DESIGN.md §15).
struct Strategy {
  enum class Kind {
    kPlan,     // §4.3 static plan search + plan executor
    kDirect,   // EvaluateFlock with explicit per-disjunct join orders
    kDynamic,  // §4.4 DynamicEvaluate with `knobs` and orders[0]
  };

  std::string id;
  Kind kind = Kind::kDirect;
  // Per-disjunct join orders for kDirect (missing or empty = text order);
  // for kDynamic only orders[0] is used. Ignored for kPlan.
  std::vector<std::vector<std::size_t>> orders;
  DynamicKnobs knobs;  // kDynamic only
};

// The strategy a RUN / EXPLAIN ANALYZE mode word names, in text order:
// PLAN = plan:search, DIRECT = direct:text, DYNAMIC = dyn:text with the
// session's §4.4 knobs. nullopt for any other word.
std::optional<Strategy> StrategyForMode(std::string_view mode,
                                        const DynamicKnobs& session_knobs);

// The discretized feature vector, hashed. `description` is the
// human-readable rendering SHOW OPTIMIZER STATE and EXPLAIN ANALYZE use.
struct PlanContext {
  std::uint64_t key = 0;
  std::string description;
};

// Data-independent hash of the flock's structure: disjunct count, subgoal
// kinds and predicate names, term kinds (parameter names included —
// which positions are parameters is the core of the flock's shape),
// filter aggregate/comparison. Stable across runs and processes.
std::uint64_t FlockShapeHash(const QueryFlock& flock);

// Shape hash + log2 bucket of the filter threshold + log2 bucket of the
// total rows of the base relations the flock mentions.
PlanContext MakePlanContext(const QueryFlock& flock, const CostModel& model);

// The candidate arms for `flock`, in deterministic order. Always includes
// the static-plan arm and the cost-ordered and text-ordered direct arms
// (deduplicated when the cost order *is* the text order); when
// `dynamic_eligible` (single disjunct, support filter — the
// DynamicEvaluate preconditions, which the caller checks), adds §4.4
// arms over `session_knobs` and two contrasting presets. Arms are
// re-enumerated per run: "direct:cost" always means "the cost model's
// current order", so plans track statistics while the history tracks the
// strategy.
std::vector<Strategy> EnumerateArms(const QueryFlock& flock,
                                    const CostModel& model,
                                    bool dynamic_eligible,
                                    const DynamicKnobs& session_knobs);

// The bandit's decision for one run.
struct BanditChoice {
  std::size_t index = 0;     // into the arms vector passed to Choose
  std::string arm_id;
  bool exploring = false;    // chosen because the arm was unplayed
  std::uint64_t plays = 0;   // plays of the chosen arm before this run
  double mean_wall_ms = 0;   // its mean before this run (0 if unplayed)
  // Per-arm "id plays mean score" lines, deterministic order — EXPLAIN
  // ANALYZE prints this as the posterior.
  std::string posterior;
};

// Cost-minimizing UCB over a fixed arm set. Deterministic: unplayed arms
// are explored first in enumeration order; ties break toward the lower
// index. `exploration` scales the confidence bonus in units of the
// observed mean spread, so the policy is invariant to the workload's
// absolute speed.
class PlanBandit {
 public:
  explicit PlanBandit(const OutcomeHistory& history, double exploration = 0.5)
      : history_(history), exploration_(exploration) {}

  BanditChoice Choose(std::uint64_t context,
                      const std::vector<Strategy>& arms) const;

 private:
  const OutcomeHistory& history_;
  double exploration_;
};

}  // namespace qf

#endif  // QF_OPTIMIZER_BANDIT_H_
