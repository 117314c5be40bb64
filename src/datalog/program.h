// Non-recursive Datalog programs defining *intermediate predicates*.
//
// The paper's Ex. 2.2 keeps to flocks whose bodies mention base relations
// only, noting: "To include patients with several diseases simultaneously,
// we would have to extend our query-flocks language to allow intermediate
// predicates (in particular, a predicate relating patients to the set of
// symptoms from all their diseases). That extension is feasible." This
// module is that extension: a set of parameter-free rules
//
//   explained(P,S) :- diagnoses(P,D) AND causes(D,S)
//
// validated to be safe and non-recursive, materialized bottom-up, and
// usable by flock queries and plans as ordinary predicates.
#ifndef QF_DATALOG_PROGRAM_H_
#define QF_DATALOG_PROGRAM_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "datalog/ast.h"

namespace qf {

// A program is a list of rules; several rules with the same head name form
// a union view. Heads may use any distinct variables; bodies may use base
// predicates and other intermediate predicates, with negation and
// arithmetic, but no flock parameters (intermediates are data, not
// parametrized queries).
class Program {
 public:
  Program() = default;
  explicit Program(std::vector<ConjunctiveQuery> rules)
      : rules_(std::move(rules)) {}

  const std::vector<ConjunctiveQuery>& rules() const { return rules_; }
  void AddRule(ConjunctiveQuery rule) { rules_.push_back(std::move(rule)); }
  bool empty() const { return rules_.empty(); }

  // Distinct head names, in definition order.
  std::vector<std::string> DefinedPredicates() const;

  // True when `predicate` heads a rule or occurs in a rule body: only then
  // can storing a base relation of that name change what the program
  // materializes. (Views that read it through another view change too,
  // but they are rematerialized with that view; a base relation named
  // like a view is an error materialization must report.)
  bool Mentions(std::string_view predicate) const;

  // Checks every rule is safe, parameter-free, has distinct head
  // variables, and that the dependency graph between defined predicates is
  // acyclic (no recursion — §2 fixes a non-recursive language).
  Status Validate() const;

  // Defined predicates in an order where every rule's body mentions only
  // base predicates and previously listed intermediates. Fails like
  // Validate on cyclic programs.
  Result<std::vector<std::string>> TopologicalOrder() const;

  std::string ToString() const;

 private:
  std::vector<ConjunctiveQuery> rules_;
};

// Parses a program: zero or more rules in the flock query syntax; unlike
// ParseQuery, rules may have different head names.
Result<Program> ParseProgram(std::string_view text);

}  // namespace qf

#endif  // QF_DATALOG_PROGRAM_H_
