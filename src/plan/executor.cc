#include "plan/executor.h"

#include <algorithm>
#include <map>
#include <set>

#include "common/thread_pool.h"
#include "plan/legality.h"
#include "relational/ops.h"

namespace qf {
namespace {

// True when `step` mentions any of `names` as a body predicate (positive
// or negated) in some disjunct — the dependency relation that decides
// which steps may run concurrently.
bool ReferencesAny(const FilterStep& step, const std::set<std::string>& names) {
  for (const ConjunctiveQuery& cq : step.query.disjuncts) {
    for (const Subgoal& s : cq.subgoals) {
      if (s.is_comparison()) continue;
      if (names.contains(s.predicate())) return true;
    }
  }
  return false;
}

}  // namespace

Result<Relation> ExecutePlan(const QueryPlan& plan, const QueryFlock& flock,
                             const Database& db,
                             const PlanExecOptions& options,
                             const ExecEnv& env, PlanExecInfo* info) {
  if (options.check_legal) {
    if (Status s = CheckLegal(plan, flock); !s.ok()) return s;
  }
  if (plan.steps.empty()) return InvalidArgumentError("plan has no steps");

  std::size_t n_steps = plan.steps.size();
  // Materialized step results, indexed by step, referenced by later steps.
  std::vector<Relation> materialized(n_steps);
  std::vector<StepExecInfo> step_infos(n_steps);
  // What steps read (extra predicates and earlier step results), and the
  // step results alone, which are what the order chooser is handed.
  std::map<std::string, const Relation*> extra;
  if (options.extra_predicates != nullptr) extra = *options.extra_predicates;
  std::map<std::string, const Relation*> steps;

  // Observability: pre-allocate one "step" node per plan step, in plan
  // order, before any wave fans out — concurrent steps then write
  // disjoint, stably addressed subtrees.
  OpMetrics* m = env.metrics;
  TraceSink* tr = env.trace;
  if (m != nullptr && m->op.empty()) m->op = "plan";
  std::vector<OpMetrics*> step_nodes(n_steps, nullptr);
  if (m != nullptr) {
    for (std::size_t k = 0; k < n_steps; ++k) {
      step_nodes[k] = m->AddChild("step", plan.steps[k].result_name);
    }
  }

  // Execute in dependency waves: a wave is the maximal run of remaining
  // steps in which no step reads a result produced by an *earlier step of
  // the same wave*. That is exactly the dependency that distinguishes
  // concurrent from serial execution — serial execution publishes each
  // result only after its step finishes, so a reference to anything else
  // (a finished step, the base database, or a name no step has produced
  // yet) resolves identically either way. Steps inside a wave evaluate
  // concurrently; waves themselves run in order.
  std::size_t done = 0;
  while (done < n_steps) {
    std::set<std::string> produced = {plan.steps[done].result_name};
    std::size_t wave_end = done + 1;
    while (wave_end < n_steps &&
           !ReferencesAny(plan.steps[wave_end], produced)) {
      produced.insert(plan.steps[wave_end].result_name);
      ++wave_end;
    }

    // Resolve evaluation options serially (only Evaluate runs
    // concurrently).
    std::vector<FlockEvalOptions> wave_options(wave_end - done);
    std::vector<bool> precomputed(wave_end - done, false);
    for (std::size_t k = done; k < wave_end; ++k) {
      const FilterStep& step = plan.steps[k];
      if (options.precomputed_steps != nullptr && k + 1 < n_steps) {
        auto it = options.precomputed_steps->find(step.result_name);
        if (it != options.precomputed_steps->end()) {
          precomputed[k - done] = true;
          extra[step.result_name] = steps[step.result_name] = it->second;
          step_infos[k] = {step.result_name, it->second->size(), 0, 0};
          if (step_nodes[k] != nullptr) {
            step_nodes[k]->detail += " (precomputed)";
            step_nodes[k]->rows_out = it->second->size();
          }
          continue;
        }
      }
      FlockEvalOptions eval_options;
      if (options.order_chooser) {
        eval_options = options.order_chooser(step.query, steps);
      } else if (k < options.per_step.size()) {
        eval_options = options.per_step[k];
      }
      wave_options[k - done] = std::move(eval_options);
    }

    Status wave_status = ParallelForStatus(
        std::min<std::size_t>(env.threads, wave_end - done),
        wave_end - done, 1, [&](std::size_t i, std::size_t) -> Status {
          std::size_t k = done + i;
          const FilterStep& step = plan.steps[k];
          if (precomputed[i]) return Status::Ok();
          QueryFlock step_flock(step.query, flock.filter);
          FlockEvalInfo eval_info;
          ScopedOp span(step_nodes[k], tr);
          Result<Relation> result =
              EvaluateFlock(step_flock, db, wave_options[i],
                            env.At(step_nodes[k]), &extra, &eval_info);
          if (!result.ok()) return result.status();

          // EvaluateFlock orders columns by sorted parameter name;
          // reorder to the step's declared parameter order so step
          // references bind positionally.
          std::vector<std::string> declared;
          for (const std::string& p : step.parameters) {
            declared.push_back("$" + p);
          }
          Relation reordered = Project(*result, declared, nullptr, env.ctx);
          reordered.set_name(step.result_name);
          step_infos[k] = {step.result_name, reordered.size(),
                           eval_info.peak_rows, eval_info.answer_rows};
          materialized[k] = std::move(reordered);
          return Status::Ok();
        });
    if (!wave_status.ok()) return wave_status;
    if (Status s = env.Check(); !s.ok()) return s;

    // Publish the wave's results for later waves (single-threaded again).
    for (std::size_t k = done; k < wave_end; ++k) {
      if (!precomputed[k - done]) {
        const std::string& name = plan.steps[k].result_name;
        extra[name] = steps[name] = &materialized[k];
      }
    }
    done = wave_end;
  }

  if (info != nullptr) {
    for (StepExecInfo& si : step_infos) {
      info->total_peak_rows += si.peak_rows;
      info->steps.push_back(std::move(si));
    }
  }

  // Normalize to the flock evaluator's output shape (sorted parameters,
  // canonically sorted rows).
  OpMetrics* node = m != nullptr ? m->AddChild("project", "normalize")
                                 : nullptr;
  ScopedOp span(node, tr);
  Relation normalized = Project(materialized[n_steps - 1],
                                FlockParameterColumns(flock), node, env.ctx);
  if (Status s = env.Check(); !s.ok()) return s;
  normalized.SortRows();
  if (m != nullptr) m->rows_out += normalized.size();
  normalized.set_name("flock_result");
  return normalized;
}

}  // namespace qf
