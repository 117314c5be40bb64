#include "flocks/incremental_eval.h"

#include <cmath>
#include <cstdio>
#include <functional>
#include <set>
#include <utility>

#include "common/check.h"
#include "flocks/cq_eval.h"
#include "flocks/eval.h"
#include "relational/ops.h"

namespace qf {

namespace {

// Append chains longer than this rebuild instead of walking: a state this
// stale has absorbed nothing for 64 appends, so the delta is likely a
// large fraction of the relation anyway.
constexpr std::size_t kMaxChainLinks = 64;

// Reserved overlay name for the delta slice of `name` — ':' cannot appear
// in a parsed predicate, so user queries can never collide with it.
std::string DeltaPredicate(const std::string& name) {
  return "__qf_delta:" + name;
}

// All relational predicates of the query, with an any-occurrence-negated
// flag (a predicate both joined and negated counts as negated: its deltas
// are non-monotone).
std::map<std::string, bool> CollectPredicates(const UnionQuery& query) {
  std::map<std::string, bool> preds;
  for (const ConjunctiveQuery& cq : query.disjuncts) {
    for (const Subgoal& sg : cq.subgoals) {
      if (!sg.is_relational()) continue;
      preds[sg.predicate()] |= sg.is_negated();
    }
  }
  return preds;
}

// SUM states are cached only while every weight is integral: integral
// doubles below 2^53 add exactly in any order, so the cached sums stay
// bit-identical to a from-scratch fold at every thread count.
bool IntegralSummand(const Value& v) {
  double x = v.AsNumber();
  return std::nearbyint(x) == x && std::abs(x) <= 9007199254740992.0;
}

}  // namespace

IncrementalFlockState::IncrementalFlockState(std::string flock_name,
                                             const QueryFlock& flock)
    : flock_name_(std::move(flock_name)),
      query_(flock.query),
      built_filter_(flock.filter),
      param_columns_(FlockParameterColumns(flock)),
      table_(param_columns_.size() + flock.query.head_arity(),
             param_columns_.size(), FilterAggKind(flock.filter.agg),
             param_columns_.size() + flock.filter.agg_head_index,
             /*distinct=*/true,
             flock.filter.agg == FilterAgg::kSum
                 ? std::function<Status(const Value&)>(CheckSumWeight)
                 : nullptr) {}

bool IncrementalFlockState::Serves(const QueryFlock& flock) const {
  const FilterCondition& f = flock.filter;
  return f.IsMonotone() && query_ == flock.query &&
         f.agg == built_filter_.agg &&
         (f.agg == FilterAgg::kCount ||
          f.agg_head_index == built_filter_.agg_head_index);
}

Relation IncrementalFlockState::Serve(const FilterCondition& filter) const {
  Relation out = table_.Finish(
      Schema(param_columns_),
      [&filter](const Value& agg) { return filter.Accepts(agg); },
      /*with_aggregate=*/false);
  out.set_name("flock_result");
  return out;
}

std::string IncrementalFlockState::Describe() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "flock %s: %zu answers, %zu groups, ~%llu bytes\n",
                flock_name_.c_str(), answer_rows(), group_count(),
                static_cast<unsigned long long>(ApproxBytes()));
  std::string out = buf;
  out += "  built filter: " +
         built_filter_.ToString(query_.head_name(),
                                query_.disjuncts.front().head_vars) +
         "\n";
  std::snprintf(buf, sizeof(buf),
                "  decisions: builds=%llu deltas=%llu cached=%llu\n",
                static_cast<unsigned long long>(full_builds),
                static_cast<unsigned long long>(delta_batches),
                static_cast<unsigned long long>(served_cached));
  out += buf;
  for (const RelationMark& mark : marks_) {
    out += "  base " + mark.name + ": " + std::to_string(mark.rows) +
           " rows" + (mark.negated ? " (negated)" : "") + "\n";
  }
  return out;
}

void IncrementalEvaluator::RecordAppend(const std::string& name,
                                        std::shared_ptr<const Relation> from,
                                        std::shared_ptr<const Relation> to) {
  Chain& chain = chains_[name];
  chain.links.emplace_back(std::move(from), std::move(to));
  if (chain.links.size() > kMaxChainLinks) {
    chain.links.erase(chain.links.begin());
  }
  PruneChains();
}

void IncrementalEvaluator::PruneChains() {
  for (auto it = chains_.begin(); it != chains_.end();) {
    auto& links = it->second.links;
    // A walk starts at a mark and only moves forward, so the links before
    // the earliest one a mark starts from are unreachable.
    std::size_t first = links.size();
    for (const auto& [flock, st] : states_) {
      for (const IncrementalFlockState::RelationMark& mark : st->marks()) {
        if (mark.name != it->first) continue;
        for (std::size_t i = 0; i < first; ++i) {
          if (links[i].first == mark.handle) {
            first = i;
            break;
          }
        }
      }
    }
    links.erase(links.begin(),
                links.begin() + static_cast<std::ptrdiff_t>(first));
    it = links.empty() ? chains_.erase(it) : std::next(it);
  }
}

void IncrementalEvaluator::RecordReplace(const std::string& name) {
  chains_.erase(name);
}

void IncrementalEvaluator::Reset() {
  states_.clear();
  chains_.clear();
  last_use_.clear();
  use_tick_ = 0;
}

bool IncrementalEvaluator::MakeRoom(const std::string& subject,
                                    std::uint64_t projected,
                                    std::uint64_t budget) {
  if (budget == 0) return true;
  if (projected > budget) return false;
  auto others_bytes = [&] {
    std::uint64_t total = 0;
    for (const auto& [name, st] : states_) {
      if (name != subject) total += st->ApproxBytes();
    }
    return total;
  };
  while (others_bytes() + projected > budget) {
    // Victim = least-recently-served other state; among equals the
    // smaller one goes first (less rebuild work thrown away). The loop
    // terminates: each pass erases one state, and once none remain
    // others_bytes() == 0 <= budget - projected.
    std::string victim;
    std::uint64_t victim_use = 0;
    std::uint64_t victim_bytes = 0;
    for (const auto& [name, st] : states_) {
      if (name == subject) continue;
      auto use_it = last_use_.find(name);
      std::uint64_t use = use_it != last_use_.end() ? use_it->second : 0;
      std::uint64_t bytes = st->ApproxBytes();
      if (victim.empty() || use < victim_use ||
          (use == victim_use && bytes < victim_bytes)) {
        victim = name;
        victim_use = use;
        victim_bytes = bytes;
      }
    }
    if (victim.empty()) break;
    states_.erase(victim);
    last_use_.erase(victim);
    ++budget_evictions_;
  }
  return true;
}

bool IncrementalEvaluator::DeltaSlice(
    const IncrementalFlockState::RelationMark& mark,
    const std::shared_ptr<const Relation>& cur, Relation* slice) const {
  auto it = chains_.find(mark.name);
  if (it == chains_.end()) return false;
  // Walk the append chain from the marked handle to the current one. Each
  // AppendRelation keeps its base's rows as a bit-identical prefix, so
  // reachability means rows [mark.rows, cur->size()) are exactly the
  // appended tuples.
  std::shared_ptr<const Relation> at = mark.handle;
  std::size_t steps = 0;
  while (at != cur) {
    bool advanced = false;
    for (const auto& [from, to] : it->second.links) {
      if (from == at) {
        at = to;
        advanced = true;
        break;
      }
    }
    if (!advanced || ++steps > kMaxChainLinks) return false;
  }
  QF_CHECK_MSG(cur->size() >= mark.rows,
               "append chain shrank a relation (prefix stability violated)");
  *slice = Relation(cur->schema());
  slice->set_name(DeltaPredicate(mark.name));
  for (std::size_t r = mark.rows; r < cur->size(); ++r) {
    slice->Add(cur->rows()[r]);
  }
  return true;
}

Status IncrementalEvaluator::BuildState(const QueryFlock& flock,
                                        const Database& db,
                                        const ExecEnv& env,
                                        IncrementalFlockState* st,
                                        bool* exact) {
  std::vector<std::string> param_columns = FlockParameterColumns(flock);
  std::size_t agg_idx = param_columns.size() + flock.filter.agg_head_index;
  bool sum = flock.filter.agg == FilterAgg::kSum;
  // Answer rows stream straight into the state: the sink sees each CQ's
  // rows in the threads=1 order, and the state's table dedups them.
  CqEvalOptions absorb;
  absorb.rows = [&](const Tuple& row) {
    if (!st->Absorb(row)) return st->Flush();
    if (sum && !IntegralSummand(row[agg_idx])) *exact = false;
    return Status::Ok();
  };

  PredicateResolver resolver(db);
  OpMetrics* m = env.metrics;
  std::size_t n_disjuncts = flock.query.disjuncts.size();
  std::vector<OpMetrics*> disjunct_nodes(n_disjuncts, nullptr);
  if (m != nullptr) disjunct_nodes = m->AddChildren(n_disjuncts, "disjunct");

  // Serial over disjuncts (each CQ evaluation is itself morsel-parallel);
  // absorbing in disjunct order reproduces the direct evaluator's union
  // order, so the cached answer set is the same first-occurrence sequence.
  for (std::size_t d = 0; d < n_disjuncts; ++d) {
    const ConjunctiveQuery& cq = flock.query.disjuncts[d];
    std::vector<std::string> wanted = param_columns;
    for (const std::string& h : cq.head_vars) wanted.push_back(h);
    ScopedOp span(disjunct_nodes[d], env.trace);
    Result<Relation> bindings = EvaluateConjunctiveBindings(
        cq, resolver, wanted, absorb, env.At(disjunct_nodes[d]));
    if (!bindings.ok()) return bindings.status();
    if (Status s = env.Check(); !s.ok()) return s;
  }
  if (Status s = st->Flush(); !s.ok()) return s;

  for (const auto& [pred, negated] : CollectPredicates(flock.query)) {
    std::shared_ptr<const Relation> handle = db.GetShared(pred);
    std::size_t rows = handle->size();
    st->marks().push_back(IncrementalFlockState::RelationMark{
        pred, std::move(handle), rows, negated});
  }
  st->set_last_generation(db.generation());
  st->full_builds += 1;
  return Status::Ok();
}

Status IncrementalEvaluator::Run(const std::string& name,
                                 const QueryFlock& flock, const Database& db,
                                 const std::map<std::string, Relation>& views,
                                 std::uint64_t state_budget,
                                 const ExecEnv& env, Relation* result,
                                 IncrementalRunInfo* info) {
  QF_CHECK_MSG(result != nullptr && info != nullptr,
               "incremental Run needs result and info out-params");
  *info = IncrementalRunInfo{};
  OpMetrics* m = env.metrics;
  if (m != nullptr && m->op.empty()) m->op = "flock";
  // Added first so the decision leads the EXPLAIN ANALYZE tree; the
  // detail is filled in by `finish` once the decision is known.
  OpMetrics* inc_node = m != nullptr ? m->AddChild("incremental") : nullptr;
  auto finish = [&](std::string decision) {
    PruneChains();
    info->decision = std::move(decision);
    auto st_it = states_.find(name);
    info->state_bytes =
        st_it != states_.end() ? st_it->second->ApproxBytes() : 0;
    if (inc_node != nullptr) {
      inc_node->detail = info->decision;
      inc_node->mem_bytes = info->state_bytes;
      for (const auto& [rel, rows] : info->delta_rows) {
        inc_node->AddChild("delta", rel)->rows_in = rows;
      }
    }
    if (m != nullptr && info->served) m->rows_out += result->size();
    return Status::Ok();
  };

  // --- support checks: anything here falls back to the full evaluator ---

  if (!flock.filter.IsMonotone()) return finish("unsupported(non-monotone)");
  if (Status s = flock.Validate(); !s.ok()) {
    // The full evaluator reports the precise validation error.
    return finish("unsupported(invalid)");
  }
  std::map<std::string, bool> preds = CollectPredicates(flock.query);
  for (const auto& [pred, negated] : preds) {
    (void)negated;
    if (views.count(pred) > 0) {
      // Views resolve before the database and have no epoch/lineage;
      // queries over them stay on the uncached path.
      states_.erase(name);
      return finish("unsupported(view:" + pred + ")");
    }
    if (!db.Has(pred)) {
      // The full evaluator reports the unknown-predicate error.
      states_.erase(name);
      return finish("unsupported(missing:" + pred + ")");
    }
  }

  // --- existing state: cached / delta / invalidation ---

  std::string build_reason = "build";
  auto it = states_.find(name);
  if (it != states_.end() && !it->second->Serves(flock)) {
    build_reason = "rebuild(definition)";
    states_.erase(it);
    it = states_.end();
  }
  if (it != states_.end()) {
    IncrementalFlockState& st = *it->second;
    // Classify each marked base relation: unchanged, appended (delta
    // slice reachable through the append chain), or invalidating. An
    // unchanged generation means every relation pointer is unchanged.
    std::vector<std::pair<std::string, Relation>> changed;
    if (db.generation() != st.last_generation()) {
      for (const IncrementalFlockState::RelationMark& mark : st.marks()) {
        std::shared_ptr<const Relation> cur = db.GetShared(mark.name);
        if (cur == mark.handle) continue;
        if (mark.negated) {
          build_reason = "rebuild(negated)";
          break;
        }
        Relation slice;
        if (!DeltaSlice(mark, cur, &slice)) {
          build_reason = "rebuild(lineage)";
          break;
        }
        changed.emplace_back(mark.name, std::move(slice));
      }
    }
    if (build_reason != "build") {
      states_.erase(it);
    } else if (changed.empty()) {
      // At most unrelated relations changed: refresh the generation so
      // the cheap probe works next time, and serve.
      st.set_last_generation(db.generation());
      *result = st.Serve(flock.filter);
      st.served_cached += 1;
      info->served = true;
      TouchState(name);
      return finish("cached");
    } else {
      std::vector<std::string> param_columns = FlockParameterColumns(flock);
      std::size_t total_delta = 0;
      for (const auto& [rel, slice] : changed) {
        info->delta_rows.emplace_back(rel, slice.size());
        total_delta += slice.size();
      }
      // Residency pre-check BEFORE any work mutates the state: a
      // governed statement cannot un-latch a mid-flight budget trip, so
      // the projection (current footprint + one answer row per delta
      // tuple) decides up front. Colder flocks' states are evicted to
      // make room; only a projection the whole budget cannot hold drops
      // this state.
      if (state_budget > 0) {
        std::size_t answer_arity =
            param_columns.size() + flock.query.head_arity();
        std::uint64_t projected =
            st.ApproxBytes() + static_cast<std::uint64_t>(total_delta) *
                                   ApproxTupleBytes(answer_arity);
        if (!MakeRoom(name, projected, state_budget)) {
          states_.erase(it);
          last_use_.erase(name);
          return finish("evicted(budget)");
        }
      }

      // New answers are exactly the derivations using >= 1 delta tuple:
      // for every positive occurrence of a changed relation, evaluate
      // the query with that one occurrence bound to the delta slice and
      // everything else bound to the full new relations. Overlaps
      // (derivations with several delta tuples) are absorbed by dedup.
      std::map<std::string, const Relation*> extra;
      std::set<std::string> changed_names;
      for (const auto& [rel, slice] : changed) {
        if (slice.size() == 0) continue;  // deduped-away append
        extra[DeltaPredicate(rel)] = &slice;
        changed_names.insert(rel);
      }
      PredicateResolver resolver(db, extra);
      std::vector<Tuple> staging;
      CqEvalOptions stage;
      stage.rows = [&staging](const Tuple& row) {
        staging.push_back(row);
        return Status::Ok();
      };
      for (std::size_t d = 0; d < flock.query.disjuncts.size(); ++d) {
        const ConjunctiveQuery& cq = flock.query.disjuncts[d];
        std::vector<std::string> wanted = param_columns;
        for (const std::string& h : cq.head_vars) wanted.push_back(h);
        for (std::size_t j = 0; j < cq.subgoals.size(); ++j) {
          const Subgoal& sg = cq.subgoals[j];
          if (!sg.is_positive() || changed_names.count(sg.predicate()) == 0) {
            continue;
          }
          ConjunctiveQuery delta_cq = cq;
          delta_cq.subgoals[j] =
              Subgoal::Positive(DeltaPredicate(sg.predicate()), sg.args());
          OpMetrics* node =
              inc_node != nullptr
                  ? inc_node->AddChild("disjunct",
                                       "delta d" + std::to_string(d) + " " +
                                           sg.predicate())
                  : nullptr;
          ScopedOp span(node, env.trace);
          Result<Relation> bindings = EvaluateConjunctiveBindings(
              delta_cq, resolver, wanted, stage, env.At(node));
          if (!bindings.ok()) return bindings.status();
          if (Status s = env.Check(); !s.ok()) return s;
        }
      }
      // Pre-scan the staged rows BEFORE absorbing: a SUM violation must
      // surface as the evaluator's error with the state untouched, and a
      // non-integral summand must drop the state without having polluted
      // it (the fallback full run then owns the statement).
      if (flock.filter.agg == FilterAgg::kSum) {
        std::size_t agg_idx =
            param_columns.size() + flock.filter.agg_head_index;
        for (const Tuple& row : staging) {
          if (Status s = CheckSumWeight(row[agg_idx]); !s.ok()) return s;
        }
        for (const Tuple& row : staging) {
          if (!IntegralSummand(row[agg_idx])) {
            states_.erase(name);
            return finish("unsupported(sum-inexact)");
          }
        }
      }
      for (const Tuple& row : staging) st.Absorb(row);
      if (Status s = st.Flush(); !s.ok()) return s;
      st.delta_batches += 1;
      for (IncrementalFlockState::RelationMark& mark : st.marks()) {
        std::shared_ptr<const Relation> cur = db.GetShared(mark.name);
        mark.rows = cur->size();
        mark.handle = std::move(cur);
      }
      st.set_last_generation(db.generation());
      *result = st.Serve(flock.filter);
      info->served = true;
      TouchState(name);
      Status done =
          finish("delta(+" + std::to_string(total_delta) + " rows)");
      // Post-absorb residency check: the projection above is an
      // estimate; if the real footprint now exceeds what the whole
      // budget can hold (after evicting colder states), the (correct)
      // result still serves but the state is not retained.
      if (state_budget > 0 &&
          !MakeRoom(name, st.ApproxBytes(), state_budget)) {
        states_.erase(name);
        last_use_.erase(name);
      }
      return done;
    }
  }

  // --- full build (no state, or invalidated above) ---

  auto st = std::make_unique<IncrementalFlockState>(name, flock);
  bool exact = true;
  if (Status s = BuildState(flock, db, env, st.get(), &exact); !s.ok()) {
    return s;
  }
  if (!exact) {
    // Non-integral summands: incremental re-addition is not guaranteed
    // bit-identical to a from-scratch fold, so nothing is cached and the
    // caller runs the ordinary evaluation.
    return finish("unsupported(sum-inexact)");
  }
  if (state_budget > 0 &&
      !MakeRoom(name, st->ApproxBytes(), state_budget)) {
    return finish("evicted(budget)");
  }
  *result = st->Serve(flock.filter);
  states_[name] = std::move(st);
  info->served = true;
  TouchState(name);
  return finish(build_reason);
}

const IncrementalFlockState* IncrementalEvaluator::state(
    const std::string& name) const {
  auto it = states_.find(name);
  return it != states_.end() ? it->second.get() : nullptr;
}

std::string IncrementalEvaluator::Describe(const std::string& name) const {
  const IncrementalFlockState* st = state(name);
  if (st == nullptr) return "no incremental state for flock " + name + "\n";
  return st->Describe();
}

std::string IncrementalEvaluator::DescribeAll() const {
  if (states_.empty()) return "no incremental state\n";
  std::string out;
  for (const auto& [name, st] : states_) out += st->Describe();
  return out;
}

}  // namespace qf
