#include "flocks/eval.h"

#include <algorithm>
#include <functional>
#include <optional>
#include <utility>

#include "relational/ops.h"
#include "relational/spill.h"

namespace qf {

std::vector<std::string> FlockParameterColumns(const QueryFlock& flock) {
  std::vector<std::string> out;
  for (const std::string& p : flock.ParameterNames()) out.push_back("$" + p);
  return out;
}

AggKind FilterAggKind(FilterAgg agg) {
  switch (agg) {
    case FilterAgg::kCount: return AggKind::kCount;
    case FilterAgg::kSum: return AggKind::kSum;
    case FilterAgg::kMin: return AggKind::kMin;
    case FilterAgg::kMax: return AggKind::kMax;
  }
  return AggKind::kCount;
}

Status CheckSumWeight(const Value& weight) {
  if (!weight.IsNumeric() || weight.AsNumber() < 0) {
    return FailedPreconditionError(
        "SUM filter saw a negative or non-numeric weight; monotone "
        "pruning would be unsound (set require_nonnegative_sum=false "
        "to override)");
  }
  return Status::Ok();
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
  const std::size_t n_params = param_columns.size();
  // Canonical head column names, so disjuncts with differently named head
  // variables (Fig. 4) share one answer schema.
  std::vector<std::string> answer_columns = param_columns;
  for (std::size_t i = 0; i < flock.query.head_arity(); ++i) {
    answer_columns.push_back("_h" + std::to_string(i));
  }

  PredicateResolver resolver =
      extra != nullptr ? PredicateResolver(db, *extra)
                       : PredicateResolver(db);

  // Observability: one "disjunct" child per disjunct, then "union"
  // (unions only), "group_by" and "filter".
  OpMetrics* m = env.metrics;
  TraceSink* tr = env.trace;
  if (m != nullptr && m->op.empty()) m->op = "flock";
  QueryContext* ctx = env.ctx;
  auto governed = [&env]() { return env.Check(); };

  const FilterCondition& filter = flock.filter;
  AggKind agg_kind = FilterAggKind(filter.agg);
  const std::size_t agg_idx =
      n_params + (filter.agg == FilterAgg::kCount ? 0 : filter.agg_head_index);
  std::string agg_column = filter.agg == FilterAgg::kCount
                               ? std::string()
                               : answer_columns[agg_idx];
  std::string agg_detail(FilterAggName(filter.agg));
  if (filter.agg != FilterAgg::kCount) agg_detail += "(" + agg_column + ")";

  // One pipeline, two sinks: every disjunct streams its final join into
  // one group table, whose distinct set dedups answers across disjuncts.
  // With a spill grant a single-disjunct flock also gets a grace-hash
  // sink, which its final join takes instead when the governor's
  // activation rule fires (DESIGN.md §14). Disjuncts run in order, so
  // every partition of the table sees the answers in disjunct order.
  std::function<Status(const Value&)> check;
  if (filter.agg == FilterAgg::kSum && options.require_nonnegative_sum) {
    check = CheckSumWeight;
  }
  GroupTable groups(answer_columns.size(), n_params, agg_kind, agg_idx,
                    /*distinct=*/true, check, ctx);
  std::size_t n_disjuncts = flock.query.disjuncts.size();
  std::optional<SpillGroupSink> spill;
  if (ctx != nullptr && ctx->spill_env() != nullptr && n_disjuncts == 1) {
    auto row_check = [&check, agg_idx](const Tuple& t) {
      return check == nullptr ? Status::Ok() : check(t[agg_idx]);
    };
    spill.emplace(Schema(answer_columns), n_params, agg_kind, agg_column,
                  "_agg", row_check, *ctx->spill_env(), ctx, nullptr);
  }

  std::vector<OpMetrics*> disjunct_nodes(n_disjuncts, nullptr);
  if (m != nullptr) disjunct_nodes = m->AddChildren(n_disjuncts, "disjunct");
  std::size_t peak = 0;
  for (std::size_t d = 0; d < n_disjuncts; ++d) {
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
    cq_options.groups = &groups;
    cq_options.spill = spill.has_value() ? &*spill : nullptr;
    ScopedOp span(disjunct_nodes[d], tr);
    std::size_t disjunct_peak = 0;
    Result<Relation> streamed = EvaluateConjunctiveBindings(
        cq, resolver, wanted, cq_options, env.At(disjunct_nodes[d]),
        &disjunct_peak);
    if (!streamed.ok()) return streamed.status();
    peak = std::max(peak, disjunct_peak);
  }
  if (Status s = governed(); !s.ok()) return s;

  // The union is the table's distinct set: its node only counts.
  if (m != nullptr && n_disjuncts > 1) {
    OpMetrics* node = m->AddChild("union");
    for (const OpMetrics* d : disjunct_nodes) node->rows_in += d->rows_out;
    node->rows_out = groups.rows();
  }
  auto accepts = [&filter](const Value& agg) { return filter.Accepts(agg); };
  Relation result{Schema(param_columns)};
  std::uint64_t n_groups = 0;
  std::size_t answer_rows = 0;
  if (spill.has_value() && spill->engaged) {
    OpMetrics* node =
        m != nullptr ? m->AddChild("group_by", agg_detail + " [spill]")
                     : nullptr;
    spill->set_metrics(node);
    ScopedOp span(node, tr);
    Result<Relation> grouped = spill->Finish();
    if (!grouped.ok()) return grouped.status();
    // Sorted by unique keys, so the passing keys stay sorted.
    for (Tuple& row : grouped->mutable_rows()) {
      if (!accepts(row.back())) continue;
      row.pop_back();
      result.Add(std::move(row));
    }
    n_groups = grouped->size();
    answer_rows = static_cast<std::size_t>(spill->answer_rows());
  } else {
    OpMetrics* node =
        m != nullptr ? m->AddChild("group_by", agg_detail) : nullptr;
    ScopedOp span(node, tr);
    // Only the passing groups become rows.
    result = groups.Finish(Schema(param_columns), accepts,
                           /*with_aggregate=*/false);
    n_groups = groups.groups();
    answer_rows = static_cast<std::size_t>(groups.rows());
    if (node != nullptr) {
      node->rows_in += groups.rows();
      node->rows_out += n_groups;
      node->tuples_probed += groups.pushed();  // one upsert per pushed row
      node->mem_bytes += groups.charged();
    }
  }
  if (Status s = governed(); !s.ok()) return s;
  if (m != nullptr) {
    OpMetrics* node = m->AddChild("filter");
    node->rows_in += n_groups;
    node->rows_out += result.size();
    m->rows_out += result.size();
  }
  if (info != nullptr) {
    info->peak_rows = peak;
    info->answer_rows = answer_rows;
  }
  result.set_name("flock_result");
  return result;
}

}  // namespace qf
