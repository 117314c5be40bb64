#include "datalog/program.h"

#include <map>
#include <set>

#include "datalog/parser.h"
#include "datalog/safety.h"

namespace qf {

std::vector<std::string> Program::DefinedPredicates() const {
  std::vector<std::string> out;
  std::set<std::string> seen;
  for (const ConjunctiveQuery& rule : rules_) {
    if (seen.insert(rule.head_name).second) out.push_back(rule.head_name);
  }
  return out;
}

bool Program::Mentions(std::string_view predicate) const {
  for (const ConjunctiveQuery& rule : rules_) {
    if (rule.head_name == predicate) return true;
    for (const Subgoal& g : rule.subgoals) {
      if (g.is_relational() && g.predicate() == predicate) return true;
    }
  }
  return false;
}

Status Program::Validate() const {
  std::map<std::string, std::size_t> arity;
  for (const ConjunctiveQuery& rule : rules_) {
    std::string why;
    if (!IsSafe(rule, &why)) {
      return InvalidArgumentError("rule for " + rule.head_name +
                                  " is unsafe: " + why);
    }
    if (!rule.Parameters().empty()) {
      return InvalidArgumentError(
          "rule for " + rule.head_name +
          " mentions flock parameters; intermediate predicates are "
          "parameter-free");
    }
    std::set<std::string> head_vars(rule.head_vars.begin(),
                                    rule.head_vars.end());
    if (head_vars.size() != rule.head_vars.size()) {
      return InvalidArgumentError("rule for " + rule.head_name +
                                  " repeats a head variable");
    }
    if (rule.head_vars.empty()) {
      return InvalidArgumentError("rule for " + rule.head_name +
                                  " has an empty head");
    }
    auto [it, inserted] = arity.emplace(rule.head_name,
                                        rule.head_vars.size());
    if (!inserted && it->second != rule.head_vars.size()) {
      return InvalidArgumentError("rules for " + rule.head_name +
                                  " disagree on arity");
    }
  }
  return TopologicalOrder().status();
}

Result<std::vector<std::string>> Program::TopologicalOrder() const {
  // Dependency edges: defined predicate -> defined predicates its rules'
  // bodies mention. Kahn's algorithm; leftovers mean a cycle.
  std::set<std::string> defined;
  for (const ConjunctiveQuery& rule : rules_) defined.insert(rule.head_name);

  std::map<std::string, std::set<std::string>> deps;
  for (const ConjunctiveQuery& rule : rules_) {
    std::set<std::string>& d = deps[rule.head_name];
    for (const Subgoal& s : rule.subgoals) {
      if (s.is_relational() && defined.contains(s.predicate()) &&
          s.predicate() != rule.head_name) {
        d.insert(s.predicate());
      }
      if (s.is_relational() && s.predicate() == rule.head_name) {
        return InvalidArgumentError("predicate " + rule.head_name +
                                    " is directly recursive");
      }
    }
  }

  std::vector<std::string> order;
  std::set<std::string> placed;
  bool progress = true;
  while (progress && order.size() < deps.size()) {
    progress = false;
    for (auto& [name, d] : deps) {
      if (placed.contains(name)) continue;
      bool ready = true;
      for (const std::string& dep : d) {
        if (!placed.contains(dep)) {
          ready = false;
          break;
        }
      }
      if (ready) {
        order.push_back(name);
        placed.insert(name);
        progress = true;
      }
    }
  }
  if (order.size() < deps.size()) {
    return InvalidArgumentError(
        "intermediate predicates are mutually recursive");
  }
  return order;
}

std::string Program::ToString() const {
  std::string out;
  for (const ConjunctiveQuery& rule : rules_) {
    out += rule.ToString() + "\n";
  }
  return out;
}

Result<Program> ParseProgram(std::string_view text) {
  Result<std::vector<ConjunctiveQuery>> rules = ParseRules(text);
  if (!rules.ok()) return rules.status();
  Program program(std::move(*rules));
  if (Status s = program.Validate(); !s.ok()) return s;
  return program;
}

}  // namespace qf
