#include "flocks/program_eval.h"

#include <vector>

#include "flocks/cq_eval.h"
#include "relational/ops.h"

namespace qf {

Result<std::map<std::string, Relation>> MaterializeProgram(
    const Program& program, const Database& db) {
  if (Status s = program.Validate(); !s.ok()) return s;
  Result<std::vector<std::string>> order = program.TopologicalOrder();
  if (!order.ok()) return order.status();

  std::map<std::string, Relation> views;
  std::map<std::string, const Relation*> view_ptrs;
  for (const std::string& name : *order) {
    if (db.Has(name)) {
      return AlreadyExistsError("intermediate predicate " + name +
                                " shadows a base relation");
    }
    PredicateResolver resolver(db, view_ptrs);
    Relation view;
    bool first = true;
    for (const ConjunctiveQuery& rule : program.rules()) {
      if (rule.head_name != name) continue;
      Result<Relation> bindings =
          EvaluateConjunctiveBindings(rule, resolver, rule.head_vars);
      if (!bindings.ok()) return bindings.status();
      if (first) {
        view = std::move(*bindings);
        first = false;
      } else {
        view = Union(view, *bindings);
      }
    }
    view.set_name(name);
    auto [it, inserted] = views.emplace(name, std::move(view));
    view_ptrs[name] = &it->second;
  }
  return views;
}

Result<Relation> EvaluateFlockWithProgram(const QueryFlock& flock,
                                          const Program& program,
                                          const Database& db,
                                          const FlockEvalOptions& options,
                                          const ExecEnv& env,
                                          FlockEvalInfo* info) {
  Result<std::map<std::string, Relation>> views =
      MaterializeProgram(program, db);
  if (!views.ok()) return views.status();
  std::map<std::string, const Relation*> extra;
  for (const auto& [name, rel] : *views) extra[name] = &rel;
  return EvaluateFlock(flock, db, options, env, &extra, info);
}

}  // namespace qf
