#include "flocks/naive_eval.h"

#include <map>
#include <set>
#include <string>
#include <vector>

#include "flocks/cq_eval.h"
#include "relational/ops.h"

namespace qf {
namespace {

// Active domain of each parameter: values in base-relation columns at
// positions where the parameter occurs in any relational subgoal.
Result<std::map<std::string, std::set<Value>>> ParameterDomains(
    const QueryFlock& flock, const Database& db) {
  std::map<std::string, std::set<Value>> domains;
  for (const std::string& p : flock.ParameterNames()) domains[p];
  for (const ConjunctiveQuery& cq : flock.query.disjuncts) {
    for (const Subgoal& s : cq.subgoals) {
      if (!s.is_relational()) continue;
      if (!db.Has(s.predicate())) {
        return NotFoundError("unknown predicate: " + s.predicate());
      }
      const Relation& base = db.Get(s.predicate());
      if (base.arity() != s.args().size()) {
        return InvalidArgumentError("arity mismatch for predicate " +
                                    s.predicate());
      }
      for (std::size_t i = 0; i < s.args().size(); ++i) {
        if (!s.args()[i].is_parameter()) continue;
        std::set<Value>& dom = domains[s.args()[i].name()];
        for (const Tuple& row : base.rows()) dom.insert(row[i]);
      }
    }
  }
  return domains;
}

}  // namespace

Result<Relation> NaiveEvaluateFlock(const QueryFlock& flock,
                                    const Database& db,
                                    const NaiveEvalOptions& options,
                                    const ExecEnv& env) {
  if (Status s = flock.Validate(&db); !s.ok()) return s;

  Result<std::map<std::string, std::set<Value>>> domains =
      ParameterDomains(flock, db);
  if (!domains.ok()) return domains.status();

  std::vector<std::string> params = flock.ParameterNames();
  std::vector<std::vector<Value>> domain_vectors;
  std::size_t total = 1;
  for (const std::string& p : params) {
    const std::set<Value>& dom = (*domains)[p];
    domain_vectors.emplace_back(dom.begin(), dom.end());
    if (dom.empty()) total = 0;
    if (total > 0 && dom.size() > options.max_assignments / total) {
      return FailedPreconditionError(
          "naive evaluation would enumerate too many assignments");
    }
    total *= dom.size();
  }

  std::vector<std::string> param_columns;
  for (const std::string& p : params) param_columns.push_back("$" + p);
  Relation result{Schema(param_columns)};
  result.set_name("flock_result");
  if (total == 0) return result;

  std::size_t head_arity = flock.query.head_arity();
  std::vector<std::string> canonical_heads;
  for (std::size_t i = 0; i < head_arity; ++i) {
    canonical_heads.push_back("_h" + std::to_string(i));
  }
  PredicateResolver resolver(db);

  // The oracle stays serial and unobserved whatever the caller's env.
  const ExecEnv cq_env{.ctx = env.ctx};

  // Odometer over the candidate assignments.
  std::vector<std::size_t> index(params.size(), 0);
  while (true) {
    if (env.ctx != nullptr && !env.ctx->Poll()) return env.ctx->Check();
    std::map<std::string, Value> assignment;
    for (std::size_t i = 0; i < params.size(); ++i) {
      assignment.emplace(params[i], domain_vectors[i][index[i]]);
    }

    // Evaluate the substituted query: union the disjuncts' answer sets.
    Relation answers{Schema(canonical_heads)};
    bool error = false;
    Status error_status;
    for (const ConjunctiveQuery& cq : flock.query.disjuncts) {
      ConjunctiveQuery ground = SubstituteParameters(cq, assignment);
      Result<Relation> bindings = EvaluateConjunctiveBindings(
          ground, resolver, ground.head_vars, {}, cq_env);
      if (!bindings.ok()) {
        error = true;
        error_status = bindings.status();
        break;
      }
      answers = Union(answers, Rename(std::move(*bindings), canonical_heads));
    }
    if (error) return error_status;

    Value aggregate =
        flock.filter.Aggregate(answers, options.require_nonnegative_sum);
    bool passes = answers.empty()
                      ? (flock.filter.agg == FilterAgg::kCount
                             ? flock.filter.Accepts(Value(std::int64_t{0}))
                             : false)
                      : flock.filter.Accepts(aggregate);
    if (passes) {
      Tuple row;
      for (std::size_t i = 0; i < params.size(); ++i) {
        row.push_back(domain_vectors[i][index[i]]);
      }
      result.Add(std::move(row));
    }

    // Advance the odometer.
    std::size_t k = 0;
    while (k < index.size()) {
      if (++index[k] < domain_vectors[k].size()) break;
      index[k] = 0;
      ++k;
    }
    if (k == index.size()) break;
  }
  return result;
}

}  // namespace qf
