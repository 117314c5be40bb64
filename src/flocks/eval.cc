#include "flocks/eval.h"

#include <algorithm>
#include <functional>
#include <optional>
#include <utility>

#include "common/check.h"
#include "common/thread_pool.h"
#include "relational/ops.h"
#include "relational/spill.h"

namespace qf {

std::vector<std::string> FlockParameterColumns(const QueryFlock& flock) {
  std::vector<std::string> out;
  for (const std::string& p : flock.ParameterNames()) out.push_back("$" + p);
  return out;
}

Result<Relation> EvaluateFlock(
    const QueryFlock& flock, const Database& db,
    const FlockEvalOptions& options, const ExecEnv& env,
    const std::map<std::string, const Relation*>* extra,
    FlockEvalInfo* info) {
  if (!flock.filter.IsMonotone()) {
    return InvalidArgumentError(
        "the direct evaluator requires a monotone filter; use "
        "NaiveEvaluateFlock for arbitrary filters");
  }
  if (Status s = flock.Validate(); !s.ok()) return s;

  std::vector<std::string> param_columns = FlockParameterColumns(flock);
  std::size_t head_arity = flock.query.head_arity();

  // Canonical head column names, so disjuncts with differently named head
  // variables (Fig. 4) union cleanly.
  std::vector<std::string> canonical_heads;
  for (std::size_t i = 0; i < head_arity; ++i) {
    canonical_heads.push_back("_h" + std::to_string(i));
  }
  std::vector<std::string> answer_columns = param_columns;
  answer_columns.insert(answer_columns.end(), canonical_heads.begin(),
                        canonical_heads.end());

  PredicateResolver resolver =
      extra != nullptr ? PredicateResolver(db, *extra)
                       : PredicateResolver(db);

  // Observability: one pre-allocated "disjunct" child per disjunct, so
  // the concurrent evaluations below write disjoint subtrees (the
  // children vector is never resized during the fan-out).
  OpMetrics* m = env.metrics;
  TraceSink* tr = env.trace;
  if (m != nullptr && m->op.empty()) m->op = "flock";
  QueryContext* ctx = env.ctx;
  auto governed = [&env]() { return env.Check(); };

  const FilterCondition& filter = flock.filter;
  AggKind agg_kind =
      filter.agg == FilterAgg::kCount
          ? AggKind::kCount
          : (filter.agg == FilterAgg::kSum
                 ? AggKind::kSum
                 : (filter.agg == FilterAgg::kMin ? AggKind::kMin
                                                  : AggKind::kMax));
  std::string agg_column = filter.agg == FilterAgg::kCount
                               ? std::string()
                               : canonical_heads[filter.agg_head_index];
  std::string agg_detail;
  switch (agg_kind) {
    case AggKind::kCount: agg_detail = "COUNT"; break;
    case AggKind::kSum: agg_detail = "SUM(" + agg_column + ")"; break;
    case AggKind::kMin: agg_detail = "MIN(" + agg_column + ")"; break;
    case AggKind::kMax: agg_detail = "MAX(" + agg_column + ")"; break;
  }

  // Evaluate the disjuncts — concurrently when threads allow, each into
  // its own slot — then union the slots in disjunct order. The union
  // order matches the serial loop's, so the answer relation is identical
  // for every thread count.
  std::size_t n_disjuncts = flock.query.disjuncts.size();
  std::vector<Relation> disjunct_answers(n_disjuncts);
  std::vector<std::size_t> disjunct_peaks(n_disjuncts, 0);
  std::vector<OpMetrics*> disjunct_nodes(n_disjuncts, nullptr);
  if (m != nullptr) {
    disjunct_nodes = m->AddChildren(n_disjuncts, "disjunct");
  }

  // Out-of-core fused path: with a spill grant and a single disjunct,
  // hand the CQ evaluator a grace-hash GROUP BY sink. If the governor's
  // activation rule fires at the final join, answer rows stream straight
  // into checksummed partition files and the union / SUM scan / group_by
  // below are replaced by the sink's Finish() — same grouped relation,
  // bit for bit (DESIGN.md §14). Multi-disjunct flocks keep the
  // materialized path: the union must dedup across disjuncts.
  std::optional<SpillGroupSink> sink;
  if (ctx != nullptr && ctx->spill_env() != nullptr && n_disjuncts == 1) {
    std::function<Status(const Tuple&)> row_check;
    if (filter.agg == FilterAgg::kSum && options.require_nonnegative_sum) {
      std::size_t agg_idx = param_columns.size() + filter.agg_head_index;
      row_check = [agg_idx](const Tuple& t) -> Status {
        if (!t[agg_idx].IsNumeric() || t[agg_idx].AsNumber() < 0) {
          return FailedPreconditionError(
              "SUM filter saw a negative or non-numeric weight; monotone "
              "pruning would be unsound (set require_nonnegative_sum=false "
              "to override)");
        }
        return Status::Ok();
      };
    }
    sink.emplace(Schema(answer_columns), param_columns.size(), agg_kind,
                 agg_column, "_agg", std::move(row_check), *ctx->spill_env(),
                 ctx, nullptr);
  }

  auto eval_disjunct = [&](std::size_t d) -> Status {
    const ConjunctiveQuery& cq = flock.query.disjuncts[d];
    std::vector<std::string> wanted = param_columns;
    for (const std::string& h : cq.head_vars) wanted.push_back(h);
    CqEvalOptions cq_options;
    if (d < options.per_disjunct.size()) cq_options = options.per_disjunct[d];
    if (disjunct_nodes[d] != nullptr && !cq_options.join_order.empty()) {
      // A pinned (non-text) join order is a plan decision — the learned
      // optimizer's direct arms pass one — so surface it in the tree.
      std::string order = "order=";
      for (std::size_t i = 0; i < cq_options.join_order.size(); ++i) {
        if (i > 0) order += ',';
        order += std::to_string(cq_options.join_order[i]);
      }
      disjunct_nodes[d]->detail = order;
    }
    if (sink.has_value()) cq_options.sink = &*sink;
    ScopedOp span(disjunct_nodes[d], tr);
    Result<Relation> bindings =
        EvaluateConjunctiveBindings(cq, resolver, wanted, cq_options,
                                    env.At(disjunct_nodes[d]),
                                    &disjunct_peaks[d]);
    if (!bindings.ok()) return bindings.status();
    disjunct_answers[d] = Rename(std::move(*bindings), answer_columns);
    return Status::Ok();
  };
  if (Status s = ParallelForStatus(
          std::min<std::size_t>(env.threads, n_disjuncts), n_disjuncts,
          1, [&](std::size_t begin, std::size_t) { return eval_disjunct(begin); });
      !s.ok()) {
    return s;
  }
  if (Status s = governed(); !s.ok()) return s;

  Relation grouped;
  std::size_t peak = 0;
  if (sink.has_value() && sink->engaged) {
    // Streamed: no materialized answer set ever existed. The sink's
    // row_check already enforced SUM nonnegativity per distinct row, and
    // its partition drain reproduces the group_by below exactly.
    peak = disjunct_peaks[0];
    OpMetrics* node =
        m != nullptr ? m->AddChild("group_by", agg_detail + " [spill]")
                     : nullptr;
    sink->set_metrics(node);
    ScopedOp span(node, tr);
    Result<Relation> g = sink->Finish();
    if (!g.ok()) return g.status();
    grouped = std::move(*g);
    if (Status s = governed(); !s.ok()) return s;
    if (info != nullptr) {
      info->peak_rows = peak;
      info->answer_rows = static_cast<std::size_t>(sink->answer_rows());
    }
  } else {
  Relation answers{Schema(answer_columns)};
  {
    // One "union" node for the whole fold; counters filled once so
    // rows_out is the exact cardinality of the unioned answer set.
    OpMetrics* node =
        m != nullptr && n_disjuncts > 1 ? m->AddChild("union") : nullptr;
    ScopedOp span(node, tr);
    for (std::size_t d = 0; d < n_disjuncts; ++d) {
      peak = std::max(peak, disjunct_peaks[d]);
      if (n_disjuncts == 1) {
        answers = std::move(disjunct_answers[d]);
      } else {
        std::uint64_t dropped = 0;
        if (ctx != nullptr) {
          dropped = static_cast<std::uint64_t>(answers.size() +
                                               disjunct_answers[d].size()) *
                    ApproxTupleBytes(answers.arity());
        }
        answers = Union(answers, disjunct_answers[d], nullptr, ctx);
        if (ctx != nullptr) {
          // Both union inputs are dead: the consumed disjunct result is
          // freed here, the previous accumulator was replaced.
          ctx->Release(dropped);
          disjunct_answers[d] = Relation();
        }
      }
    }
    if (Status s = governed(); !s.ok()) return s;
    if (node != nullptr) {
      for (const Relation& r : disjunct_answers) node->rows_in += r.size();
      node->rows_out = answers.size();
    }
  }

  if (flock.filter.agg == FilterAgg::kSum &&
      options.require_nonnegative_sum) {
    std::size_t agg_idx = param_columns.size() + flock.filter.agg_head_index;
    for (const Tuple& t : answers.rows()) {
      if (!t[agg_idx].IsNumeric() || t[agg_idx].AsNumber() < 0) {
        return FailedPreconditionError(
            "SUM filter saw a negative or non-numeric weight; monotone "
            "pruning would be unsound (set require_nonnegative_sum=false "
            "to override)");
      }
    }
  }

  if (info != nullptr) {
    info->peak_rows = peak;
    info->answer_rows = answers.size();
  }

  {
    OpMetrics* node =
        m != nullptr ? m->AddChild("group_by", agg_detail) : nullptr;
    ScopedOp span(node, tr);
    grouped = GroupAggregate(answers, param_columns, agg_kind, agg_column,
                             "_agg", env.threads, node, ctx);
  }
  if (Status s = governed(); !s.ok()) return s;
  }

  std::size_t agg_col = grouped.schema().IndexOfOrDie("_agg");
  Relation passing;
  {
    OpMetrics* node = m != nullptr ? m->AddChild("filter") : nullptr;
    ScopedOp span(node, tr);
    passing = Select(
        grouped,
        [&filter, agg_col](const Tuple& row) {
          return filter.Accepts(row[agg_col]);
        },
        node, ctx);
  }
  if (Status s = governed(); !s.ok()) return s;
  Relation result;
  {
    OpMetrics* node = m != nullptr ? m->AddChild("project") : nullptr;
    ScopedOp span(node, tr);
    result = Project(passing, param_columns, node, ctx);
    result.SortRows();
  }
  if (Status s = governed(); !s.ok()) return s;
  if (m != nullptr) m->rows_out += result.size();
  result.set_name("flock_result");
  return result;
}

}  // namespace qf
