// Execution of query plans: each FILTER step runs as a flock evaluation
// (same filter as the original flock), materializing a relation over its
// parameters that later steps join in as an extra predicate. The final
// step's result is the flock's answer.
#ifndef QF_PLAN_EXECUTOR_H_
#define QF_PLAN_EXECUTOR_H_

#include <cstddef>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "flocks/eval.h"
#include "plan/plan.h"
#include "relational/database.h"

namespace qf {

struct StepExecInfo {
  std::string step_name;
  // Surviving parameter assignments of this step.
  std::size_t result_rows = 0;
  // Peak intermediate relation size while evaluating the step.
  std::size_t peak_rows = 0;
  // Rows of the step's answer relation before grouping.
  std::size_t answer_rows = 0;
};

struct PlanExecInfo {
  std::vector<StepExecInfo> steps;
  // Sum of peak intermediate sizes — the work proxy the benches report.
  std::size_t total_peak_rows = 0;
};

// Chooses evaluation options (join orders) for one step, given the results
// of earlier steps (materialized or precomputed; not
// PlanExecOptions::extra_predicates). The optimizer
// provides a cost-based implementation (CostBasedOrderChooser in
// optimizer/executor_support.h); without one, steps run in text order —
// which for a prefilter plan joins the small ok-relations first and can
// degrade into cross products, so passing a chooser is strongly advised.
using StepOrderChooser = std::function<FlockEvalOptions(
    const UnionQuery& step_query,
    const std::map<std::string, const Relation*>& steps)>;

struct PlanExecOptions {
  // Join orders for each step (index-aligned with plan.steps); missing
  // entries mean text order. Each entry holds per-disjunct CQ options.
  std::vector<FlockEvalOptions> per_step;
  // When set, overrides per_step: called once per step with the
  // materialized prior-step relations available.
  StepOrderChooser order_chooser;
  // Additional predicates visible to every step — e.g. the materialized
  // intermediate views of a Datalog program (flocks/program_eval.h).
  const std::map<std::string, const Relation*>* extra_predicates = nullptr;
  // Steps whose results the caller already has (keyed by result name):
  // the executor uses the given relation instead of evaluating the step.
  // This is how a flock *sequence* works — §2.2's footnote on maximal
  // itemsets has "each flock depending on the result of the previous
  // flock", and the previous flock's answer simply stands in for the
  // matching prefilter steps (mining/maximal.h). The caller is trusted:
  // the relation must equal the step's answer (same parameter order).
  const std::map<std::string, const Relation*>* precomputed_steps = nullptr;
  // Verify legality before executing (recommended; turn off only in
  // benches that check it once outside the timed region).
  bool check_legal = true;
};

// Executes `plan` for `flock` over `db`. The result matches
// EvaluateFlock(flock, db) for every legal plan (the §4.2 equivalence),
// with the same canonically sorted row order.
//
// `env`: with more than one thread, steps that do not reference each
// other's results evaluate concurrently in dependency waves, and each
// step's flock evaluation gets the same env. The result — and every
// per-step materialization — is identical for every thread count.
// env.metrics receives one "step" child per plan step (in plan order,
// pre-allocated before each wave fans out) holding that step's
// flock-evaluation tree, plus a final "project" child. env.ctx governs
// every step and is checked between waves, so a latched failure stops
// the plan before the next wave starts.
Result<Relation> ExecutePlan(const QueryPlan& plan, const QueryFlock& flock,
                             const Database& db,
                             const PlanExecOptions& options = {},
                             const ExecEnv& env = {},
                             PlanExecInfo* info = nullptr);

}  // namespace qf

#endif  // QF_PLAN_EXECUTOR_H_
