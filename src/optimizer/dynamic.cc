#include "optimizer/dynamic.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <optional>

#include "common/check.h"
#include "flocks/cq_eval.h"
#include "flocks/eval.h"
#include "relational/ops.h"

namespace qf {
namespace {

// "$"-tagged parameter columns present in `schema`.
std::set<std::string> ParamColumnsIn(const Schema& schema) {
  std::set<std::string> out;
  for (const std::string& c : schema.columns()) {
    if (!c.empty() && c[0] == '$') out.insert(c);
  }
  return out;
}

// The candidate-answer view of `rel`: when every head variable is bound
// and the relation carries extra columns, project onto params + head vars
// (a tighter bound on distinct answers). Otherwise `rel` itself — already
// duplicate-free under set semantics — is the (sound) view, and no copy is
// made. Returns a pointer to `rel` or to `storage`.
const Relation* AnswerUpperBoundView(const Relation& rel,
                                     const std::set<std::string>& params,
                                     const std::vector<std::string>& head_vars,
                                     Relation& storage) {
  bool heads_bound = true;
  for (const std::string& h : head_vars) {
    if (!rel.schema().Contains(h)) {
      heads_bound = false;
      break;
    }
  }
  if (!heads_bound || params.size() + head_vars.size() >= rel.arity()) {
    return &rel;
  }
  std::vector<std::string> keep(params.begin(), params.end());
  for (const std::string& h : head_vars) {
    if (!params.contains(h)) keep.push_back(h);
  }
  if (keep.size() >= rel.arity()) return &rel;
  storage = Project(rel, keep);
  return &storage;
}

}  // namespace

Result<Relation> DynamicEvaluate(const QueryFlock& flock, const Database& db,
                                 const DynamicOptions& options,
                                 const ExecEnv& env, DynamicLog* log) {
  if (Status s = flock.Validate(&db); !s.ok()) return s;
  if (flock.query.disjuncts.size() != 1) {
    return UnimplementedError(
        "dynamic evaluation handles single-disjunct flocks; union flocks "
        "need union prefilters (§3.4)");
  }
  if (!flock.filter.IsSupportStyle()) {
    return FailedPreconditionError(
        "dynamic filter selection is defined for support-type filters");
  }
  const ConjunctiveQuery& cq = flock.query.disjuncts.front();
  const double threshold = flock.filter.threshold;

  // Partition subgoals, mirroring the static evaluator.
  std::vector<const Subgoal*> positives;
  std::vector<const Subgoal*> comparisons;
  std::vector<const Subgoal*> negations;
  for (const Subgoal& s : cq.subgoals) {
    if (s.is_positive()) {
      positives.push_back(&s);
    } else if (s.is_comparison()) {
      comparisons.push_back(&s);
    } else {
      negations.push_back(&s);
    }
  }
  QF_CHECK(!positives.empty());  // Validate guarantees safety

  std::vector<std::size_t> order = options.join_order;
  if (order.empty()) {
    order.resize(positives.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  } else if (order.size() != positives.size()) {
    return InvalidArgumentError(
        "join_order must be a permutation of the positive subgoals");
  }

  OpMetrics* m = env.metrics;
  TraceSink* tr = env.trace;
  if (m != nullptr && m->op.empty()) m->op = "dynamic";
  QueryContext* ctx = env.ctx;
  auto governed = [&env]() { return env.Check(); };

  // Binding relations per positive subgoal.
  std::vector<Relation> bindings;
  bindings.reserve(positives.size());
  for (const Subgoal* s : positives) {
    OpMetrics* node = m != nullptr ? m->AddChild("scan", s->predicate())
                                   : nullptr;
    ScopedOp span(node, tr);
    bindings.push_back(
        SubgoalBindings(*s, db.Get(s->predicate()), env.threads, node,
                        ctx));
    if (Status s2 = governed(); !s2.ok()) return s2;
  }
  std::vector<Relation> negation_bindings;
  negation_bindings.reserve(negations.size());
  for (const Subgoal* s : negations) {
    OpMetrics* node =
        m != nullptr ? m->AddChild("scan", "NOT " + s->predicate()) : nullptr;
    ScopedOp span(node, tr);
    negation_bindings.push_back(
        SubgoalBindings(*s, db.Get(s->predicate()), env.threads, node,
                        ctx));
    if (Status s2 = governed(); !s2.ok()) return s2;
  }

  // Ratio history per parameter set (the §4.4 "previously encountered"
  // bookkeeping).
  std::map<std::set<std::string>, double> last_ratio;
  DynamicLog local_log;
  DynamicLog& out_log = log != nullptr ? *log : local_log;

  // Decides and possibly applies a FILTER step on `rel` at point `at`.
  // One group-count pass yields the tuples-per-assignment ratio *and* the
  // per-group sizes; the semi-join is paid only when both the ratio gate
  // and the removed-mass check say filtering is worthwhile.
  auto maybe_filter = [&](Relation& rel, const std::string& at) {
    std::set<std::string> params = ParamColumnsIn(rel.schema());
    if (params.empty() || rel.empty()) return;
    const std::uint64_t start_ns = MetricsNowNs();
    OpMetrics* node = m != nullptr ? m->AddChild("dyn_filter", at) : nullptr;
    ScopedOp span(node, tr);
    Relation view_storage;
    const Relation* view =
        AnswerUpperBoundView(rel, params, cq.head_vars, view_storage);
    std::vector<std::string> param_list(params.begin(), params.end());
    Relation counts;
    {
      OpMetrics* gnode =
          node != nullptr ? node->AddChild("group_by", "COUNT") : nullptr;
      ScopedOp gspan(gnode, tr);
      counts = GroupAggregate(*view, param_list, AggKind::kCount, "", "_n",
                              /*threads=*/1, gnode, ctx);
    }
    std::size_t n_col = counts.schema().IndexOfOrDie("_n");
    double ratio = static_cast<double>(view->size()) /
                   static_cast<double>(counts.size());

    auto it = last_ratio.find(params);
    bool consider;
    if (it == last_ratio.end()) {
      consider = ratio < options.aggressiveness * threshold;
    } else {
      consider = ratio < options.improvement_factor * it->second;
    }

    DynamicDecision decision;
    decision.at = at;
    decision.parameters = params;
    decision.ratio = ratio;
    decision.rows_before = rel.size();

    bool should_filter = false;
    double removed_fraction = 0;
    if (consider) {
      // A low *mean* ratio can hide a head-heavy distribution where the
      // surviving groups hold nearly all tuples; check the mass that
      // would actually be removed.
      double kept_mass = 0;
      double total_mass = 0;
      for (const Tuple& t : counts.rows()) {
        double n = static_cast<double>(t[n_col].AsInt());
        total_mass += n;
        if (n >= threshold) kept_mass += n;
      }
      removed_fraction = total_mass > 0 ? 1.0 - kept_mass / total_mass : 0.0;
      should_filter = removed_fraction >= options.min_removed_fraction;
    }

    if (should_filter) {
      Relation ok = Project(
          Select(counts,
                 [&](const Tuple& t) {
                   return static_cast<double>(t[n_col].AsInt()) >= threshold;
                 }),
          param_list);
      OpMetrics* snode =
          node != nullptr ? node->AddChild("semi_join", "reduce by support")
                          : nullptr;
      ScopedOp sspan(snode, tr);
      rel = SemiJoin(rel, ok, snode, ctx);
      ++out_log.filters_applied;
    }
    if (consider) {
      // A filtering opportunity was fully evaluated (the group counts
      // ran), so the set is "seen" whether or not the semi-join was
      // applied — §4.4's "dropped significantly since the last filtering
      // opportunity" measures from here. The baseline is the observed
      // ratio clamped up to the threshold:
      //   * applied: surviving groups each hold >= threshold tuples, so
      //     the true post-filter ratio is at least the threshold;
      //   * declined by the removed-mass check: the raw ratio may sit far
      //     below the threshold, and recording it would demand the next
      //     ratio beat improvement_factor * (tiny), locking filtering out
      //     permanently even after later joins reshape the distribution.
      //     Clamping keeps the re-consideration bar at
      //     improvement_factor * threshold.
      last_ratio[params] = std::max(ratio, threshold);
    } else if (it == last_ratio.end()) {
      last_ratio[params] = ratio;
    } else {
      it->second = std::min(it->second, ratio);
    }

    decision.considered = consider;
    decision.removed_fraction = removed_fraction;
    decision.filtered = should_filter;
    decision.rows_after = rel.size();
    decision.wall_ns = MetricsNowNs() - start_ns;
    if (node != nullptr) {
      node->rows_in = decision.rows_before;
      node->rows_out = decision.rows_after;
    }
    out_log.decisions.push_back(std::move(decision));
  };

  // Apply comparisons and negations as soon as their columns are bound.
  std::vector<bool> cmp_applied(comparisons.size(), false);
  std::vector<bool> neg_applied(negations.size(), false);
  auto apply_ready = [&](Relation& rel) {
    const Schema* schema = &rel.schema();
    auto bound = [&](const Term& t) {
      return t.is_constant() || schema->Contains(TermColumn(t));
    };
    for (std::size_t i = 0; i < comparisons.size(); ++i) {
      if (cmp_applied[i]) continue;
      const Subgoal& s = *comparisons[i];
      if (!bound(s.lhs()) || !bound(s.rhs())) continue;
      cmp_applied[i] = true;
      const Schema& sch = rel.schema();
      auto value = [&sch](const Term& t, const Tuple& row) -> const Value& {
        return t.is_constant() ? t.constant()
                               : row[sch.IndexOfOrDie(TermColumn(t))];
      };
      rel = Select(rel, [&s, &value](const Tuple& row) {
        return EvalCompare(s.op(), value(s.lhs(), row), value(s.rhs(), row));
      });
      schema = &rel.schema();
    }
    for (std::size_t i = 0; i < negations.size(); ++i) {
      if (neg_applied[i]) continue;
      bool ready = true;
      for (const Term& t : negations[i]->terms()) {
        if (!t.is_constant() && !schema->Contains(TermColumn(t))) {
          ready = false;
          break;
        }
      }
      if (!ready) continue;
      neg_applied[i] = true;
      rel = AntiJoin(rel, negation_bindings[i]);
      schema = &rel.schema();
    }
  };

  // The fold: inspect each leaf before joining it, and the running
  // intermediate after every join.
  maybe_filter(bindings[order[0]], "leaf " + positives[order[0]]->ToString());
  Relation current = std::move(bindings[order[0]]);
  apply_ready(current);
  out_log.peak_rows = current.size();
  for (std::size_t k = 1; k < order.size(); ++k) {
    maybe_filter(bindings[order[k]],
                 "leaf " + positives[order[k]]->ToString());
    {
      OpMetrics* node =
          m != nullptr ? m->AddChild("join", positives[order[k]]->predicate())
                       : nullptr;
      ScopedOp span(node, tr);
      std::uint64_t dropped = static_cast<std::uint64_t>(current.size()) *
                              ApproxTupleBytes(current.arity());
      current =
          NaturalJoin(current, bindings[order[k]], /*threads=*/1, node, ctx);
      if (ctx != nullptr) {
        ctx->Release(dropped);
        ctx->Release(static_cast<std::uint64_t>(bindings[order[k]].size()) *
                     ApproxTupleBytes(bindings[order[k]].arity()));
        bindings[order[k]] = Relation();
      }
    }
    if (Status s2 = governed(); !s2.ok()) return s2;
    out_log.peak_rows = std::max(out_log.peak_rows, current.size());
    apply_ready(current);
    maybe_filter(current, "after join " + std::to_string(k));
    if (Status s2 = governed(); !s2.ok()) return s2;
  }

  // Mandatory filtering at the root (§4.4: "We must filter at the root").
  std::vector<std::string> param_columns = FlockParameterColumns(flock);
  std::vector<std::string> answer_columns = param_columns;
  for (const std::string& h : cq.head_vars) answer_columns.push_back(h);
  Relation answers;
  {
    OpMetrics* node = m != nullptr ? m->AddChild("project", "answers")
                                   : nullptr;
    ScopedOp span(node, tr);
    answers = Project(current, answer_columns, node, ctx);
  }
  if (Status s2 = governed(); !s2.ok()) return s2;
  Relation counts;
  {
    OpMetrics* node = m != nullptr ? m->AddChild("group_by", "COUNT")
                                   : nullptr;
    ScopedOp span(node, tr);
    counts = GroupAggregate(answers, param_columns, AggKind::kCount, "", "_n",
                            /*threads=*/1, node, ctx);
  }
  if (Status s2 = governed(); !s2.ok()) return s2;
  std::size_t n_col = counts.schema().IndexOfOrDie("_n");
  const FilterCondition& filter = flock.filter;
  Relation passing;
  {
    OpMetrics* node = m != nullptr ? m->AddChild("filter") : nullptr;
    ScopedOp span(node, tr);
    passing = Select(
        counts,
        [&](const Tuple& t) { return filter.Accepts(t[n_col]); }, node, ctx);
  }
  OpMetrics* node = m != nullptr ? m->AddChild("project") : nullptr;
  ScopedOp span(node, tr);
  Relation result = Project(passing, param_columns, node, ctx);
  if (Status s2 = governed(); !s2.ok()) return s2;
  if (m != nullptr) m->rows_out += result.size();
  result.set_name("flock_result");
  return result;
}

std::string RenderDynamicTrace(const DynamicLog& log) {
  std::string out;
  int step = 1;
  for (const DynamicDecision& d : log.decisions) {
    std::string params;
    for (const std::string& p : d.parameters) {
      if (!params.empty()) params += ",";
      params += p;
    }
    char timing[40] = "";
    if (d.wall_ns > 0) {
      std::snprintf(timing, sizeof(timing), "; %.3fms",
                    static_cast<double>(d.wall_ns) / 1e6);
    }
    char buf[224];
    if (d.filtered) {
      std::snprintf(buf, sizeof(buf),
                    "temp%d(%s) := FILTER at %s   [ratio %.2f; %zu -> %zu "
                    "rows%s]\n",
                    step++, params.c_str(), d.at.c_str(), d.ratio,
                    d.rows_before, d.rows_after, timing);
    } else if (d.considered) {
      // The ratio gate passed but the removed-mass check declined the
      // semi-join — the §4.4 group-size-distribution caveat in action.
      std::snprintf(buf, sizeof(buf),
                    "         no filter at %s (%s)   [ratio %.2f; would "
                    "remove %.0f%%; %zu rows%s]\n",
                    d.at.c_str(), params.c_str(), d.ratio,
                    d.removed_fraction * 100.0, d.rows_before, timing);
    } else {
      std::snprintf(buf, sizeof(buf),
                    "         no filter at %s (%s)   [ratio %.2f; %zu "
                    "rows%s]\n",
                    d.at.c_str(), params.c_str(), d.ratio, d.rows_before,
                    timing);
    }
    out += buf;
  }
  char tail[96];
  std::snprintf(tail, sizeof(tail),
                "%zu filter(s) applied; peak intermediate %zu rows\n",
                log.filters_applied, log.peak_rows);
  out += tail;
  return out;
}

}  // namespace qf
