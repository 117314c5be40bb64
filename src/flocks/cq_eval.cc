#include "flocks/cq_eval.h"

#include <algorithm>
#include <atomic>
#include <optional>

#include "common/check.h"
#include "common/flat_hash.h"
#include "common/thread_pool.h"
#include "relational/ops.h"
#include "relational/spill.h"

namespace qf {

std::string TermColumn(const Term& term) {
  QF_CHECK_MSG(!term.is_constant(), "constants have no binding column");
  return term.is_parameter() ? "$" + term.name() : term.name();
}

namespace {

// A value of a joined row — the columns of `a`, then those of `b` that
// `a` lacks — resolved once: a constant, or the side and position of a
// column.
struct ColRef {
  const Value* constant = nullptr;
  bool right = false;  // in b's row, else in a's
  std::size_t idx = 0;
  const Value& Of(const Tuple& a, const Tuple& b) const {
    return constant != nullptr ? *constant : right ? b[idx] : a[idx];
  }
};

// Resolves `column` in the joined layout of `a` and `b` (`b` null: `a`
// alone); nullopt when neither binds it.
std::optional<ColRef> ResolveColumn(const std::string& column, const Schema& a,
                                    const Schema* b = nullptr) {
  if (std::optional<std::size_t> i = a.IndexOf(column)) {
    return ColRef{.idx = *i};
  }
  if (b != nullptr) {
    if (std::optional<std::size_t> j = b->IndexOf(column)) {
      return ColRef{.right = true, .idx = *j};
    }
  }
  return std::nullopt;
}

// A comparison subgoal with both operands resolved once, so evaluating
// it per row does no name lookup.
struct BoundComparison {
  CompareOp op;
  ColRef lhs;
  ColRef rhs;
  bool Eval(const Tuple& a, const Tuple& b) const {
    return EvalCompare(op, lhs.Of(a, b), rhs.Of(a, b));
  }
};

// Binds comparison subgoal `s` against the joined layout of `a` and `b`
// (as ResolveColumn); nullopt while an operand column is unbound.
std::optional<BoundComparison> BindComparison(const Subgoal& s,
                                              const Schema& a,
                                              const Schema* b = nullptr) {
  auto bind = [&](const Term& t) -> std::optional<ColRef> {
    if (t.is_constant()) return ColRef{.constant = &t.constant()};
    return ResolveColumn(TermColumn(t), a, b);
  };
  std::optional<ColRef> lhs = bind(s.lhs());
  std::optional<ColRef> rhs = bind(s.rhs());
  if (!lhs.has_value() || !rhs.has_value()) return std::nullopt;
  return BoundComparison{s.op(), *lhs, *rhs};
}

}  // namespace

Result<const Relation*> PredicateResolver::Resolve(
    const std::string& name) const {
  if (extra_ != nullptr) {
    auto it = extra_->find(name);
    if (it != extra_->end()) return it->second;
  }
  if (db_->Has(name)) return &db_->Get(name);
  return NotFoundError("unknown predicate: " + name);
}

Relation SubgoalBindings(const Subgoal& subgoal, const Relation& base,
                         unsigned threads, OpMetrics* metrics,
                         QueryContext* ctx) {
  const std::vector<Term>& args = subgoal.args();
  QF_CHECK_MSG(args.size() == base.arity(),
               ("arity mismatch for predicate " + subgoal.predicate()).c_str());

  // First occurrence position of each distinct column, plus the checks a
  // row must pass: constant positions and repeated-term equalities.
  std::vector<std::string> columns;
  std::vector<std::size_t> keep;            // positions projected
  std::vector<std::pair<std::size_t, Value>> constant_checks;
  std::vector<std::pair<std::size_t, std::size_t>> equal_checks;
  std::map<std::string, std::size_t> first_seen;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const Term& t = args[i];
    if (t.is_constant()) {
      constant_checks.emplace_back(i, t.constant());
      continue;
    }
    std::string col = TermColumn(t);
    auto [it, inserted] = first_seen.emplace(col, i);
    if (inserted) {
      columns.push_back(std::move(col));
      keep.push_back(i);
    } else {
      equal_checks.emplace_back(it->second, i);
    }
  }

  auto matches = [&constant_checks, &equal_checks](const Tuple& row) {
    for (const auto& [pos, value] : constant_checks) {
      if (!(row[pos] == value)) return false;
    }
    for (const auto& [a, b] : equal_checks) {
      if (!(row[a] == row[b])) return false;
    }
    return true;
  };

  // Pieces concatenate in morsel order, so every thread count reproduces
  // the one-piece row order exactly.
  constexpr std::size_t kMorselRows = 4096;
  RowPiece scanned = ConcatPieces(RunMorsels<RowPiece>(
      threads, base.size(), kMorselRows, ctx, metrics,
      [&](std::size_t begin, std::size_t end, RowPiece& piece) {
        OpGovernor gov(ctx, ApproxTupleBytes(columns.size()));
        for (std::size_t r = begin; r < end; ++r) {
          if (!gov.TickInput()) break;
          const Tuple& row = base.rows()[r];
          if (matches(row)) {
            if (!gov.Admit()) break;
            piece.rows.push_back(ProjectTuple(row, keep));
          }
        }
        gov.Flush();
        piece.bytes = gov.total_bytes();
      }));
  Relation out{Schema(columns)};
  out.mutable_rows() = std::move(scanned.rows);
  // Dropping constant-checked positions cannot merge distinct base rows,
  // but a subgoal with *no* variables (all constants) produces arity-0
  // tuples that must collapse to at most one.
  if (columns.empty()) out.Dedup();
  if (metrics != nullptr) {
    metrics->rows_in += base.size();
    metrics->rows_out += out.size();
    metrics->mem_bytes += scanned.bytes;
  }
  return out;
}

namespace {

// A comparison applied as a row predicate once its columns are bound.
struct PendingComparison {
  const Subgoal* subgoal;
  bool applied = false;
};

struct PendingNegation {
  const Subgoal* subgoal;
  Relation bindings;  // binding relation of the negated atom
  bool applied = false;
};

bool ColumnsBound(const std::vector<Term>& terms, const Schema& schema) {
  for (const Term& t : terms) {
    if (t.is_constant()) continue;
    if (!schema.Contains(TermColumn(t))) return false;
  }
  return true;
}

Status Unbound(const char* what, const Subgoal& s) {
  return FailedPreconditionError(std::string(what) +
                                 " never became bound (unsafe query): " +
                                 s.ToString());
}

// A pending negation probed per streamed row: the rows of its binding
// relation, every column of which the joined row binds (`cols`). With no
// column it acts as AntiJoin does: a non-empty binding drops every row.
struct RowNegation {
  std::vector<ColRef> cols;
  const Relation* bindings = nullptr;
  FlatTupleSet rows;

  bool Drops(const Tuple& a, const Tuple& b, std::uint64_t& probes) const {
    if (cols.empty()) return !bindings->empty();
    std::size_t h = cols.size();  // TupleHash of the projected row
    for (const ColRef& c : cols) h = TupleHash::HashCombineValue(h, c.Of(a, b));
    return rows.Contains(
        h,
        [&](std::uint32_t ref) {
          const Tuple& n = bindings->rows()[ref];
          for (std::size_t i = 0; i < cols.size(); ++i) {
            if (!(cols[i].Of(a, b) == n[i])) return false;
          }
          return true;
        },
        probes);
  }
};

// The streamed final stage (CqEvalOptions::groups or ::rows): `current`
// joined with `build` (null: `current` alone) is never materialized; the
// caller releases the inputs. Each joined row runs the pending
// comparisons and negation probes in place, is projected onto
// `output_columns` in a reusable buffer and pushed into the group table
// (morsel-parallel at env.threads > 1) — or serially into the spill sink
// when the spill rule fires, or into the row sink. A predicate or output
// column the joined row cannot bind never will be: the query is unsafe,
// and the error is the materialized path's. `peak` takes the joined row
// count, measured before the pending predicates.
Status StreamFinal(const Relation& current, const Relation* build,
                   const Subgoal* goal,
                   const std::vector<PendingComparison>& comparisons,
                   const std::vector<PendingNegation>& negations,
                   const std::vector<std::string>& output_columns,
                   const CqEvalOptions& options, const ExecEnv& env,
                   std::size_t& peak) {
  OpMetrics* m = env.metrics;
  QueryContext* ctx = env.ctx;
  OpMetrics* node = m == nullptr ? nullptr
                    : build != nullptr
                        ? m->AddChild("join", goal->predicate() + " [stream]")
                        : m->AddChild("project", "[stream]");
  ScopedOp span(node, env.trace);
  const Schema& a = current.schema();
  const Schema* b = build != nullptr ? &build->schema() : nullptr;
  std::vector<BoundComparison> compares;
  for (const PendingComparison& pc : comparisons) {
    if (pc.applied) continue;
    std::optional<BoundComparison> bound = BindComparison(*pc.subgoal, a, b);
    if (!bound.has_value()) return Unbound("arithmetic subgoal", *pc.subgoal);
    compares.push_back(*bound);
  }
  std::uint64_t probes = 0;
  std::vector<RowNegation> negs;
  negs.reserve(negations.size());
  for (const PendingNegation& pn : negations) {
    if (pn.applied) continue;
    RowNegation& rn = negs.emplace_back();
    rn.bindings = &pn.bindings;
    for (const std::string& c : pn.bindings.schema().columns()) {
      std::optional<ColRef> ref = ResolveColumn(c, a, b);
      if (!ref.has_value()) return Unbound("negated subgoal", *pn.subgoal);
      rn.cols.push_back(*ref);
    }
    const std::vector<Tuple>& nrows = pn.bindings.rows();
    rn.rows.Reserve(nrows.size());
    for (std::size_t r = 0; r < nrows.size(); ++r) {
      rn.rows.Insert(
          static_cast<std::uint32_t>(r), TupleHash{}(nrows[r]),
          [&](std::uint32_t prev) { return nrows[r] == nrows[prev]; },
          probes);
    }
  }
  std::vector<ColRef> out;
  for (const std::string& c : output_columns) {
    std::optional<ColRef> ref = ResolveColumn(c, a, b);
    if (!ref.has_value()) {
      return InvalidArgumentError("output column " + c +
                                  " is not bound by the query body");
    }
    out.push_back(*ref);
  }

  std::optional<JoinIndex> index;
  if (build != nullptr) {
    index.emplace(current, *build);
    probes += index->build_probes();
  }
  // The spill rule, unchanged: with a spill grant, a counting pass gives
  // the join's exact output size (a skewed join's output can dwarf both
  // inputs) and the governor decides on inputs plus output.
  bool spilling = false;
  if (index.has_value() && options.spill != nullptr && ctx != nullptr &&
      ctx->spill_env() != nullptr && ctx->spill_env()->vfs != nullptr &&
      ctx->budget_bytes() > 0) {
    std::uint64_t out_rows = 0;
    OpGovernor count_gov(ctx, 0);  // polls deadline/cancel only
    index->ProbeRange(0, current.size(), count_gov, probes,
                      [&](const Tuple&, const Tuple&) { return ++out_rows; });
    if (Status s = env.Check(); !s.ok()) return s;
    spilling = SpillWanted(
        ctx, (current.size() + build->size() + out_rows) *
                 ApproxTupleBytes(index->JoinedSchema().arity()));
  }

  std::atomic<std::uint64_t> joined{0};
  std::atomic<std::uint64_t> pushed{0};
  std::atomic<std::uint64_t> row_probes{0};
  auto body = [&](std::size_t begin, std::size_t end, const auto& push) {
    OpGovernor gov(ctx, 0);  // input polling; the sink charges what it keeps
    std::uint64_t n_joined = 0, n_pushed = 0, n_probes = 0;
    Tuple row(out.size());
    auto emit = [&](const Tuple& ta, const Tuple& tb) {
      ++n_joined;
      for (const BoundComparison& c : compares) {
        if (!c.Eval(ta, tb)) return true;
      }
      for (const RowNegation& rn : negs) {
        if (rn.Drops(ta, tb, n_probes)) return true;
      }
      for (std::size_t i = 0; i < out.size(); ++i) row[i] = out[i].Of(ta, tb);
      ++n_pushed;
      return push(row);
    };
    if (index.has_value()) {
      index->ProbeRange(begin, end, gov, n_probes, emit);
    } else {
      for (std::size_t r = begin; r < end; ++r) {
        const Tuple& t = current.rows()[r];
        if (!gov.TickInput() || !emit(t, t)) break;
      }
    }
    joined += n_joined;
    pushed += n_pushed;
    row_probes += n_probes;
  };
  Status status;
  if (spilling || options.groups == nullptr) {
    if (spilling) options.spill->engaged = true;
    body(std::size_t{0}, current.size(), [&](const Tuple& row) {
      status = spilling ? options.spill->Push(row) : options.rows(row);
      return status.ok();
    });
  } else {
    // NaturalJoin's probe morsel; a cross product runs as one piece.
    constexpr std::size_t kMorselRows = 4096;
    status = options.groups->Stream(
        index.has_value() && index->cross() ? 1 : env.threads, current.size(),
        kMorselRows, node, body);
  }
  if (!status.ok()) return status;
  if (Status s = env.Check(); !s.ok()) return s;
  if (node != nullptr) {
    node->rows_in += current.size();
    node->rows_in_right += build != nullptr ? build->size() : 0;
    node->rows_out += pushed;
    node->tuples_probed += probes + row_probes;
  }
  if (m != nullptr) {
    m->rows_in += joined;
    m->rows_out += pushed;
  }
  peak = std::max<std::size_t>(peak, joined);
  return Status::Ok();
}

}  // namespace

Result<Relation> EvaluateConjunctiveBindings(
    const ConjunctiveQuery& cq, const PredicateResolver& resolver,
    const std::vector<std::string>& output_columns,
    const CqEvalOptions& options, const ExecEnv& env, std::size_t* peak_rows) {
  // Partition subgoals.
  std::vector<const Subgoal*> positives;
  std::vector<PendingComparison> comparisons;
  std::vector<PendingNegation> negations;
  for (const Subgoal& s : cq.subgoals) {
    if (s.is_positive()) {
      positives.push_back(&s);
    } else if (s.is_comparison()) {
      comparisons.push_back({&s});
    } else {
      negations.push_back({&s, Relation()});
    }
  }
  if (positives.empty()) {
    return FailedPreconditionError(
        "cannot evaluate a query with no positive subgoals (unsafe)");
  }

  // Constant-only comparisons decide emptiness up front.
  for (PendingComparison& pc : comparisons) {
    const Subgoal& s = *pc.subgoal;
    if (s.lhs().is_constant() && s.rhs().is_constant()) {
      pc.applied = true;
      if (!EvalCompare(s.op(), s.lhs().constant(), s.rhs().constant())) {
        return Relation{Schema(output_columns)};
      }
    }
  }

  // Observability: `m` roots this query's operator tree. Governance:
  // check the context after every operator (truncated output from a
  // tripped operator must never be mistaken for a result), and return
  // accounted bytes of dropped intermediates to the pool.
  OpMetrics* m = env.metrics;
  TraceSink* tr = env.trace;
  QueryContext* ctx = env.ctx;
  auto governed = [&env]() { return env.Check(); };
  auto release = [ctx](const Relation& r) {
    if (ctx != nullptr) {
      ctx->Release(static_cast<std::uint64_t>(r.size()) *
                   ApproxTupleBytes(r.arity()));
    }
  };

  // Resolve bases and precompute binding relations.
  auto scan = [&](const Subgoal& s, const std::string& detail,
                  Relation& out) -> Status {
    Result<const Relation*> base = resolver.Resolve(s.predicate());
    if (!base.ok()) return base.status();
    if ((*base)->arity() != s.args().size()) {
      return InvalidArgumentError("arity mismatch for predicate " +
                                  s.predicate());
    }
    OpMetrics* node = m != nullptr ? m->AddChild("scan", detail) : nullptr;
    ScopedOp span(node, tr);
    out = SubgoalBindings(s, **base, env.threads, node, ctx);
    return governed();
  };
  std::vector<Relation> positive_bindings(positives.size());
  for (std::size_t i = 0; i < positives.size(); ++i) {
    const Subgoal& s = *positives[i];
    if (Status s2 = scan(s, s.predicate(), positive_bindings[i]); !s2.ok()) {
      return s2;
    }
  }
  for (PendingNegation& pn : negations) {
    const Subgoal& s = *pn.subgoal;
    if (Status s2 = scan(s, "NOT " + s.predicate(), pn.bindings); !s2.ok()) {
      return s2;
    }
  }

  // Join order.
  std::vector<std::size_t> order = options.join_order;
  if (order.empty()) {
    order.resize(positives.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  } else {
    std::vector<std::size_t> sorted = order;
    std::sort(sorted.begin(), sorted.end());
    bool permutation = sorted.size() == positives.size();
    for (std::size_t i = 0; permutation && i < sorted.size(); ++i) {
      permutation = sorted[i] == i;
    }
    if (!permutation) {
      return InvalidArgumentError(
          "join_order must be a permutation of the positive subgoals");
    }
  }

  // Fold joins, applying comparisons and negations as soon as bound. A
  // streamed evaluation leaves its final join to StreamFinal unless the
  // inspect hook must see it.
  const bool streamed = options.groups != nullptr || options.rows != nullptr;
  const bool hooked = options.inspect != nullptr;
  const std::size_t folded = streamed && !hooked && order.size() > 1
                                 ? order.size() - 1
                                 : order.size();
  auto inspect_leaf = [&](std::size_t k) -> Status {
    if (!hooked) return Status::Ok();
    return options.inspect(positive_bindings[order[k]],
                           "leaf " + positives[order[k]]->ToString(), env);
  };
  if (Status s2 = inspect_leaf(0); !s2.ok()) return s2;
  Relation current = std::move(positive_bindings[order[0]]);
  auto apply_ready = [&]() {
    for (PendingComparison& pc : comparisons) {
      if (pc.applied) continue;
      const Subgoal& s = *pc.subgoal;
      std::optional<BoundComparison> bound =
          BindComparison(s, current.schema());
      if (!bound.has_value()) continue;
      pc.applied = true;
      OpMetrics* node =
          m != nullptr ? m->AddChild("select", s.ToString()) : nullptr;
      ScopedOp span(node, tr);
      std::uint64_t dropped = static_cast<std::uint64_t>(current.size()) *
                              ApproxTupleBytes(current.arity());
      current = Select(
          current, [&bound](const Tuple& row) { return bound->Eval(row, row); },
          node, ctx);
      if (ctx != nullptr) ctx->Release(dropped);
    }
    for (PendingNegation& pn : negations) {
      if (pn.applied) continue;
      if (!ColumnsBound(pn.subgoal->terms(), current.schema())) continue;
      pn.applied = true;
      OpMetrics* node =
          m != nullptr ? m->AddChild("anti_join", pn.subgoal->predicate())
                       : nullptr;
      ScopedOp span(node, tr);
      std::uint64_t dropped = static_cast<std::uint64_t>(current.size()) *
                              ApproxTupleBytes(current.arity());
      current = AntiJoin(current, pn.bindings, node, ctx);
      if (ctx != nullptr) {
        ctx->Release(dropped);
        release(pn.bindings);
        pn.bindings = Relation();
      }
    }
  };
  apply_ready();
  if (Status s2 = governed(); !s2.ok()) return s2;
  std::size_t peak = current.size();
  for (std::size_t k = 1; k < folded; ++k) {
    if (Status s2 = inspect_leaf(k); !s2.ok()) return s2;
    {
      OpMetrics* node =
          m != nullptr ? m->AddChild("join", positives[order[k]]->predicate())
                       : nullptr;
      ScopedOp span(node, tr);
      // The join's row order is the same at every thread count, so the
      // fold's intermediates are too.
      std::uint64_t dropped = static_cast<std::uint64_t>(current.size()) *
                              ApproxTupleBytes(current.arity());
      current = NaturalJoin(current, positive_bindings[order[k]],
                            env.threads, node, ctx);
      if (ctx != nullptr) {
        // The old intermediate and the consumed binding are dead; hand
        // their accounted bytes back (and actually free the binding).
        ctx->Release(dropped);
        release(positive_bindings[order[k]]);
        positive_bindings[order[k]] = Relation();
      }
    }
    if (Status s2 = governed(); !s2.ok()) return s2;
    peak = std::max(peak, current.size());
    apply_ready();
    if (Status s2 = governed(); !s2.ok()) return s2;
    if (hooked) {
      Status s2 = options.inspect(current, "after join " + std::to_string(k),
                                  env);
      if (!s2.ok()) return s2;
    }
  }
  if (streamed) {
    std::size_t last = order.back();
    const Relation* build =
        folded < order.size() ? &positive_bindings[last] : nullptr;
    if (Status s2 = StreamFinal(current, build, positives[last], comparisons,
                                negations, output_columns, options, env, peak);
        !s2.ok()) {
      return s2;
    }
    if (peak_rows != nullptr) *peak_rows = peak;
    // Every input of the stream is dead.
    release(current);
    if (build != nullptr) release(*build);
    for (const PendingNegation& pn : negations) {
      if (!pn.applied) release(pn.bindings);
    }
    return Relation{Schema(output_columns)};
  }

  for (const PendingComparison& pc : comparisons) {
    if (!pc.applied) return Unbound("arithmetic subgoal", *pc.subgoal);
  }
  for (const PendingNegation& pn : negations) {
    if (!pn.applied) return Unbound("negated subgoal", *pn.subgoal);
  }

  for (const std::string& c : output_columns) {
    if (!current.schema().Contains(c)) {
      return InvalidArgumentError("output column " + c +
                                  " is not bound by the query body");
    }
  }
  if (peak_rows != nullptr) *peak_rows = peak;
  OpMetrics* node = m != nullptr ? m->AddChild("project") : nullptr;
  ScopedOp span(node, tr);
  Relation projected = Project(current, output_columns, node, ctx);
  if (Status s2 = governed(); !s2.ok()) return s2;
  release(current);
  if (m != nullptr) {
    m->rows_in += current.size();
    m->rows_out += projected.size();
  }
  return projected;
}

}  // namespace qf
