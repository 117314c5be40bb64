#include "optimizer/dynamic.h"

#include <algorithm>
#include <cstdio>
#include <map>

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

// Streams `rel` projected onto `columns` into `table` — a COUNT table
// keyed on the leading parameter columns — and records the pass in
// `node`.
void CountGroups(GroupTable& table, const Relation& rel,
                 const std::vector<std::string>& columns, OpMetrics* node) {
  std::vector<std::size_t> idx;
  for (const std::string& c : columns) {
    idx.push_back(rel.schema().IndexOfOrDie(c));
  }
  Tuple row(idx.size());
  for (const Tuple& t : rel.rows()) {
    for (std::size_t i = 0; i < idx.size(); ++i) row[i] = t[idx[i]];
    if (!table.Push(row)) break;
  }
  (void)table.Flush();  // a tripped context is checked by the caller
  if (node != nullptr) {
    node->rows_in += rel.size();
    node->rows_out += table.groups();
    node->tuples_probed += rel.size();
    node->mem_bytes += table.charged();
  }
}

}  // namespace

Result<Relation> DynamicEvaluate(
    const QueryFlock& flock, const Database& db, const DynamicOptions& options,
    const ExecEnv& env, DynamicLog* log,
    const std::map<std::string, const Relation*>* extra) {
  if (Status s = flock.Validate(); !s.ok()) return s;
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

  // Ratio history per parameter set (the §4.4 "previously encountered"
  // bookkeeping).
  std::map<std::set<std::string>, double> last_ratio;
  DynamicLog local_log;
  DynamicLog& out_log = log != nullptr ? *log : local_log;

  // The fold's inspect hook: decides and possibly applies a FILTER step
  // on `rel` at point `at`. One group-count pass yields the
  // tuples-per-assignment ratio *and* the per-group sizes; the semi-join
  // is paid only when both the ratio gate and the removed-mass check say
  // filtering is worthwhile.
  auto maybe_filter = [&](Relation& rel, const std::string& at,
                          const ExecEnv& fold) -> Status {
    std::set<std::string> params = ParamColumnsIn(rel.schema());
    if (params.empty() || rel.empty()) return Status::Ok();
    const std::uint64_t start_ns = MetricsNowNs();
    QueryContext* ctx = fold.ctx;
    OpMetrics* node = fold.metrics != nullptr
                          ? fold.metrics->AddChild("dyn_filter", at)
                          : nullptr;
    ScopedOp span(node, fold.trace);
    // The candidate-answer view: with every head variable bound and
    // columns to spare, the distinct (params, heads) projections — a
    // tighter bound on distinct answers; otherwise `rel`'s own rows,
    // already duplicate-free under set semantics.
    std::vector<std::string> param_list(params.begin(), params.end());
    std::vector<std::string> view = param_list;
    bool heads_bound = true;
    for (const std::string& h : cq.head_vars) {
      heads_bound = heads_bound && rel.schema().Contains(h);
      if (!params.contains(h)) view.push_back(h);
    }
    bool project = heads_bound && view.size() < rel.arity();
    if (!project) {
      view = param_list;
      for (const std::string& c : rel.schema().columns()) {
        if (!params.contains(c)) view.push_back(c);
      }
    }
    // One group-table pass gives the ratio; rows are built only for the
    // passing groups, and only when filtering is considered.
    GroupTable counts(view.size(), params.size(), AggKind::kCount,
                      0, /*distinct=*/project, nullptr, ctx);
    {
      OpMetrics* gnode =
          node != nullptr ? node->AddChild("group_by", "COUNT") : nullptr;
      ScopedOp gspan(gnode, fold.trace);
      CountGroups(counts, rel, view, gnode);
    }
    double ratio = static_cast<double>(counts.rows()) /
                   static_cast<double>(counts.groups());

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
    Relation ok;  // passing keys and their counts
    if (consider) {
      // A low *mean* ratio can hide a head-heavy distribution where the
      // surviving groups hold nearly all tuples; check the mass that
      // would actually be removed.
      param_list.push_back("_n");
      ok = counts.Finish(
          Schema(param_list),
          [threshold](const Value& n) {
            return static_cast<double>(n.AsInt()) >= threshold;
          },
          /*with_aggregate=*/true);
      double kept_mass = 0;
      for (const Tuple& t : ok.rows()) {
        kept_mass += static_cast<double>(t.back().AsInt());
      }
      // `rel` is not empty, so neither is the total mass.
      removed_fraction = 1.0 - kept_mass / static_cast<double>(counts.rows());
      should_filter = removed_fraction >= options.min_removed_fraction;
    }

    if (should_filter) {
      OpMetrics* snode =
          node != nullptr ? node->AddChild("semi_join", "reduce by support")
                          : nullptr;
      ScopedOp sspan(snode, fold.trace);
      std::uint64_t dropped = static_cast<std::uint64_t>(rel.size()) *
                              ApproxTupleBytes(rel.arity());
      rel = SemiJoin(rel, ok, snode, ctx);
      if (ctx != nullptr) ctx->Release(dropped);
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
    return fold.Check();
  };

  // The static fold runs the join order and calls maybe_filter at every
  // node; its group table does the mandatory filtering at the root
  // (§4.4: "We must filter at the root").
  FlockEvalOptions eval_options;
  eval_options.per_disjunct.push_back(
      {.join_order = options.join_order, .inspect = maybe_filter});
  if (env.metrics != nullptr && env.metrics->op.empty()) {
    env.metrics->op = "dynamic";
  }
  FlockEvalInfo info;
  Result<Relation> result =
      EvaluateFlock(flock, db, eval_options, env, extra, &info);
  out_log.peak_rows = info.peak_rows;
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
