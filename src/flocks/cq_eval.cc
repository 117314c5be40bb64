#include "flocks/cq_eval.h"

#include <algorithm>
#include <optional>
#include <set>
#include <unordered_set>

#include "common/check.h"
#include "common/flat_hash.h"
#include "common/thread_pool.h"
#include "datalog/acyclic.h"
#include "relational/ops.h"
#include "relational/spill.h"

namespace qf {

std::string TermColumn(const Term& term) {
  QF_CHECK_MSG(!term.is_constant(), "constants have no binding column");
  return term.is_parameter() ? "$" + term.name() : term.name();
}

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

// Resolves the value of a term in a row of `schema` (column or constant).
const Value& TermValue(const Term& t, const Schema& schema, const Tuple& row) {
  if (t.is_constant()) return t.constant();
  std::optional<std::size_t> idx = schema.IndexOf(TermColumn(t));
  QF_CHECK(idx.has_value());
  return row[*idx];
}

bool ColumnsBound(const std::vector<Term>& terms, const Schema& schema) {
  for (const Term& t : terms) {
    if (t.is_constant()) continue;
    if (!schema.Contains(TermColumn(t))) return false;
  }
  return true;
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
  std::vector<Relation> positive_bindings;
  positive_bindings.reserve(positives.size());
  for (const Subgoal* s : positives) {
    Result<const Relation*> base = resolver.Resolve(s->predicate());
    if (!base.ok()) return base.status();
    if ((*base)->arity() != s->args().size()) {
      return InvalidArgumentError("arity mismatch for predicate " +
                                  s->predicate());
    }
    OpMetrics* node = m != nullptr ? m->AddChild("scan", s->predicate())
                                   : nullptr;
    ScopedOp span(node, tr);
    positive_bindings.push_back(
        SubgoalBindings(*s, **base, env.threads, node, ctx));
    if (Status s2 = governed(); !s2.ok()) return s2;
  }
  for (PendingNegation& pn : negations) {
    Result<const Relation*> base = resolver.Resolve(pn.subgoal->predicate());
    if (!base.ok()) return base.status();
    if ((*base)->arity() != pn.subgoal->args().size()) {
      return InvalidArgumentError("arity mismatch for predicate " +
                                  pn.subgoal->predicate());
    }
    OpMetrics* node =
        m != nullptr ? m->AddChild("scan", "NOT " + pn.subgoal->predicate())
                     : nullptr;
    ScopedOp span(node, tr);
    pn.bindings =
        SubgoalBindings(*pn.subgoal, **base, env.threads, node, ctx);
    if (Status s2 = governed(); !s2.ok()) return s2;
  }

  // Optional Yannakakis full-reducer pass (acyclic queries only).
  std::optional<JoinTree> tree;
  if (options.full_reducer) {
    tree = BuildJoinTree(cq);
    if (tree.has_value()) {
      auto reduce = [&](std::size_t target, std::size_t with) {
        OpMetrics* node =
            m != nullptr
                ? m->AddChild("semi_join",
                              "reduce " + positives[target]->predicate() +
                                  " by " + positives[with]->predicate())
                : nullptr;
        ScopedOp span(node, tr);
        std::uint64_t dropped = 0;
        if (ctx != nullptr) {
          dropped = static_cast<std::uint64_t>(
                        positive_bindings[target].size()) *
                    ApproxTupleBytes(positive_bindings[target].arity());
        }
        positive_bindings[target] = SemiJoin(positive_bindings[target],
                                             positive_bindings[with], node,
                                             ctx);
        if (ctx != nullptr) ctx->Release(dropped);
      };
      // Bottom-up: parents lose tuples with no match in their ears.
      for (std::size_t k = 0; k < tree->ears.size(); ++k) {
        reduce(tree->parents[k], tree->ears[k]);
        if (Status s2 = governed(); !s2.ok()) return s2;
      }
      // Top-down: ears lose tuples with no match in their (reduced)
      // parents. After both sweeps the bindings are globally consistent.
      for (std::size_t k = tree->ears.size(); k-- > 0;) {
        reduce(tree->ears[k], tree->parents[k]);
        if (Status s2 = governed(); !s2.ok()) return s2;
      }
    }
  }

  // Join order.
  std::vector<std::size_t> order = options.join_order;
  if (tree.has_value()) {
    // Tree order: root first, then ears innermost-out, so every join
    // touches its already-present parent (no cross products).
    order.clear();
    order.push_back(tree->root);
    for (std::size_t k = tree->ears.size(); k-- > 0;) {
      order.push_back(tree->ears[k]);
    }
  }
  if (order.empty()) {
    order.resize(positives.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  } else {
    std::vector<std::size_t> sorted = order;
    std::sort(sorted.begin(), sorted.end());
    for (std::size_t i = 0; i < sorted.size(); ++i) {
      if (i >= positives.size() || sorted[i] != i) {
        return InvalidArgumentError(
            "join_order must be a permutation of the positive subgoals");
      }
    }
    if (sorted.size() != positives.size()) {
      return InvalidArgumentError(
          "join_order must be a permutation of the positive subgoals");
    }
  }

  // Fold joins, applying comparisons and negations as soon as bound.
  Relation current = std::move(positive_bindings[order[0]]);
  std::size_t peak = current.size();
  auto apply_ready = [&]() {
    for (PendingComparison& pc : comparisons) {
      if (pc.applied) continue;
      const Subgoal& s = *pc.subgoal;
      if (!ColumnsBound(s.terms(), current.schema())) continue;
      pc.applied = true;
      const Schema& schema = current.schema();
      OpMetrics* node =
          m != nullptr ? m->AddChild("select", s.ToString()) : nullptr;
      ScopedOp span(node, tr);
      std::uint64_t dropped = static_cast<std::uint64_t>(current.size()) *
                              ApproxTupleBytes(current.arity());
      current = Select(
          current,
          [&s, &schema](const Tuple& row) {
            return EvalCompare(s.op(), TermValue(s.lhs(), schema, row),
                               TermValue(s.rhs(), schema, row));
          },
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
  for (std::size_t k = 1; k < order.size(); ++k) {
    // Out-of-core streaming of the FINAL join (options.sink set): instead
    // of materializing the widest relation of the fold, each joined row is
    // built in a scratch tuple, run through every still-pending
    // comparison/negation, projected onto output_columns, and Pushed into
    // the sink (which grace-hash-spills it). Taken only when the
    // governor's spill-activation rule fires AND every pending predicate
    // and output column is bound by the prospective joined schema — so
    // the conventional path, including its unsafe-query errors, is
    // untouched whenever streaming does not strictly apply. The stream is
    // serial and probes `current` in row order, visiting joined rows in
    // exactly NaturalJoin's output order; combined with the sink's
    // order-preserving partitioning this keeps results bit-identical to
    // the materialized path at every thread count (DESIGN.md §14).
    if (k + 1 == order.size() && options.sink != nullptr) {
      const Relation& build = positive_bindings[order[k]];
      // Prospective joined schema: current's columns, then build's
      // non-shared columns in order (matches relational/ops.cc).
      std::vector<std::size_t> a_key_idx;
      std::vector<std::size_t> b_key_idx;
      std::vector<std::size_t> b_rest;
      std::vector<std::string> joined_cols = current.schema().columns();
      for (std::size_t j = 0; j < build.arity(); ++j) {
        const std::string& col = build.schema().columns()[j];
        std::optional<std::size_t> in_a = current.schema().IndexOf(col);
        if (in_a.has_value()) {
          a_key_idx.push_back(*in_a);
          b_key_idx.push_back(j);
        } else {
          b_rest.push_back(j);
          joined_cols.push_back(col);
        }
      }
      Schema joined{joined_cols};
      constexpr std::size_t kMaxRef = 0xFFFFFFFE;  // flat-hash refs are u32
      bool applicable = build.size() <= kMaxRef;
      for (const PendingComparison& pc : comparisons) {
        if (!pc.applied && !ColumnsBound(pc.subgoal->terms(), joined)) {
          applicable = false;
        }
      }
      for (const PendingNegation& pn : negations) {
        if (pn.applied) continue;
        if (!ColumnsBound(pn.subgoal->terms(), joined) ||
            pn.bindings.size() > kMaxRef) {
          applicable = false;
        }
      }
      for (const std::string& c : output_columns) {
        if (!joined.Contains(c)) applicable = false;
      }
      std::uint64_t projected_bytes =
          (static_cast<std::uint64_t>(current.size()) +
           static_cast<std::uint64_t>(build.size())) *
          ApproxTupleBytes(joined.arity());
      // With a spill environment armed, the inputs-only projection is not
      // enough: a skewed join's OUTPUT can dwarf both inputs and it is
      // the output that must fit (plus its distinct copy downstream). So
      // build the probe index once and run a counting pass — exact output
      // cardinality, no materialization — before deciding. The index is
      // reused by the streaming branch; the unbudgeted path never pays
      // for any of this.
      bool spill_armed = applicable && ctx != nullptr &&
                         ctx->spill_env() != nullptr &&
                         ctx->spill_env()->vfs != nullptr &&
                         ctx->budget_bytes() > 0;
      KeyCols a_key(a_key_idx, current.arity());
      KeyCols b_key(b_key_idx, build.arity());
      FlatKeyIndex stream_index;
      std::uint64_t stream_probes = 0;
      bool use_stream = false;
      if (spill_armed) {
        const std::vector<Tuple>& b_rows = build.rows();
        stream_index.Reserve(b_rows.size());
        for (std::size_t r = 0; r < b_rows.size(); ++r) {
          stream_index.AddRow(
              static_cast<std::uint32_t>(r), b_key.Hash(b_rows[r]),
              [&](std::uint32_t prev) {
                return b_key.Eq(b_rows[r], b_rows[prev]);
              },
              stream_probes);
        }
        stream_index.Finalize();
        std::uint64_t out_rows = 0;
        OpGovernor count_gov(ctx, 0);  // polls deadline/cancel only
        for (const Tuple& ta : current.rows()) {
          if (!count_gov.TickInput()) break;
          FlatKeyIndex::Span matches = stream_index.Probe(
              a_key.Hash(ta),
              [&](std::uint32_t br) {
                return a_key.EqAcross(ta, b_key, b_rows[br]);
              },
              stream_probes);
          out_rows += static_cast<std::uint64_t>(matches.end - matches.begin);
        }
        count_gov.Flush();
        if (Status s2 = governed(); !s2.ok()) return s2;
        use_stream = SpillWanted(
            ctx, projected_bytes + out_rows * ApproxTupleBytes(joined.arity()));
      }
      if (use_stream) {
        OpMetrics* node =
            m != nullptr
                ? m->AddChild("join",
                              positives[order[k]]->predicate() + " [stream]")
                : nullptr;
        ScopedOp op_span(node, tr);
        std::uint64_t probes = stream_probes;
        // Remaining comparisons become per-row predicates.
        std::vector<const Subgoal*> row_compares;
        for (PendingComparison& pc : comparisons) {
          if (!pc.applied) {
            row_compares.push_back(pc.subgoal);
            pc.applied = true;
          }
        }
        // Remaining negations become membership tests over the columns
        // they share with the joined schema (the anti-join key). With no
        // shared column, AntiJoin keeps a row iff the binding is empty.
        struct RowNegation {
          std::vector<std::size_t> row_idx;  // shared cols, joined schema
          std::vector<std::size_t> neg_idx;  // shared cols, binding schema
          const Relation* bindings = nullptr;
          FlatTupleSet keys;
          bool drop_all = false;
          std::optional<KeyCols> row_key;
          std::optional<KeyCols> neg_key;
        };
        std::vector<RowNegation> row_negations;
        row_negations.reserve(negations.size());
        std::vector<PendingNegation*> consumed_negations;
        for (PendingNegation& pn : negations) {
          if (pn.applied) continue;
          pn.applied = true;
          consumed_negations.push_back(&pn);
          RowNegation rn;
          rn.bindings = &pn.bindings;
          const Schema& ns = pn.bindings.schema();
          for (std::size_t j = 0; j < ns.arity(); ++j) {
            std::optional<std::size_t> in_j = joined.IndexOf(ns.columns()[j]);
            if (in_j.has_value()) {
              rn.row_idx.push_back(*in_j);
              rn.neg_idx.push_back(j);
            }
          }
          if (rn.row_idx.empty()) {
            rn.drop_all = !pn.bindings.empty();
          } else {
            rn.row_key.emplace(rn.row_idx, joined.arity());
            rn.neg_key.emplace(rn.neg_idx, pn.bindings.arity());
            rn.keys.Reserve(pn.bindings.size());
            const std::vector<Tuple>& nrows = pn.bindings.rows();
            for (std::size_t r = 0; r < nrows.size(); ++r) {
              rn.keys.Insert(
                  static_cast<std::uint32_t>(r), rn.neg_key->Hash(nrows[r]),
                  [&](std::uint32_t prev) {
                    return rn.neg_key->Eq(nrows[r], nrows[prev]);
                  },
                  probes);
            }
          }
          // Vector moves keep their heap buffers, so the KeyCols pointers
          // into row_idx/neg_idx stay valid after this move.
          row_negations.push_back(std::move(rn));
        }
        std::vector<std::size_t> out_idx;
        out_idx.reserve(output_columns.size());
        for (const std::string& c : output_columns) {
          out_idx.push_back(*joined.IndexOf(c));
        }
        // Build side indexed above (the counting pass); probe `current`
        // in row order — NaturalJoin's layout and output order exactly.
        const std::vector<Tuple>& b_rows = build.rows();
        FlatKeyIndex& index = stream_index;
        Status push_status;
        Tuple combined;
        std::uint64_t pushed = 0;
        OpGovernor gov(ctx, 0);  // input polling; the sink owns the output
        for (const Tuple& ta : current.rows()) {
          if (!gov.TickInput()) break;
          FlatKeyIndex::Span matches = index.Probe(
              a_key.Hash(ta),
              [&](std::uint32_t br) {
                return a_key.EqAcross(ta, b_key, b_rows[br]);
              },
              probes);
          for (const std::uint32_t* p = matches.begin; p != matches.end;
               ++p) {
            const Tuple& tb = b_rows[*p];
            combined.assign(ta.begin(), ta.end());
            for (std::size_t j : b_rest) combined.push_back(tb[j]);
            bool pass = true;
            for (const Subgoal* s : row_compares) {
              if (!EvalCompare(s->op(), TermValue(s->lhs(), joined, combined),
                               TermValue(s->rhs(), joined, combined))) {
                pass = false;
                break;
              }
            }
            for (const RowNegation& rn : row_negations) {
              if (!pass) break;
              if (rn.drop_all) {
                pass = false;
                break;
              }
              if (rn.row_idx.empty()) continue;  // empty binding keeps all
              const std::vector<Tuple>& nrows = rn.bindings->rows();
              if (rn.keys.Contains(
                      rn.row_key->Hash(combined),
                      [&](std::uint32_t ref) {
                        return rn.row_key->EqAcross(combined, *rn.neg_key,
                                                    nrows[ref]);
                      },
                      probes)) {
                pass = false;
              }
            }
            if (!pass) continue;
            push_status = options.sink->Push(ProjectTuple(combined, out_idx));
            if (!push_status.ok()) break;
            ++pushed;
          }
          if (!push_status.ok()) break;
        }
        gov.Flush();
        if (!push_status.ok()) return push_status;
        if (Status s2 = governed(); !s2.ok()) return s2;
        options.sink->engaged = true;
        if (node != nullptr) {
          node->rows_in += current.size();
          node->rows_in_right += build.size();
          node->rows_out += pushed;
          node->tuples_probed += probes;
        }
        peak = std::max(peak, current.size());
        if (peak_rows != nullptr) *peak_rows = peak;
        // Everything materialized is now dead: the fold intermediate, the
        // final binding, and the consumed negation bindings.
        release(current);
        release(positive_bindings[order[k]]);
        positive_bindings[order[k]] = Relation();
        for (PendingNegation* pn : consumed_negations) {
          release(pn->bindings);
          pn->bindings = Relation();
        }
        return Relation{Schema(output_columns)};
      }
    }
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
  }

  for (const PendingComparison& pc : comparisons) {
    if (!pc.applied) {
      return FailedPreconditionError(
          "arithmetic subgoal never became bound (unsafe query): " +
          pc.subgoal->ToString());
    }
  }
  for (const PendingNegation& pn : negations) {
    if (!pn.applied) {
      return FailedPreconditionError(
          "negated subgoal never became bound (unsafe query): " +
          pn.subgoal->ToString());
    }
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
