// Materialization of intermediate predicates (datalog/program.h) and
// flock evaluation over them — the "intermediate predicates" extension of
// Ex. 2.2. Views are computed bottom-up in dependency order and handed to
// the evaluators as extra predicates.
#ifndef QF_FLOCKS_PROGRAM_EVAL_H_
#define QF_FLOCKS_PROGRAM_EVAL_H_

#include <map>
#include <string>

#include "common/status.h"
#include "datalog/program.h"
#include "flocks/eval.h"
#include "flocks/flock.h"
#include "relational/database.h"

namespace qf {

// Evaluates every rule of `program` over `db` (and the views defined so
// far), returning name -> materialized relation. A view's columns are
// named after its head variables; multiple rules per head union. Fails if
// a defined predicate shadows a base relation.
Result<std::map<std::string, Relation>> MaterializeProgram(
    const Program& program, const Database& db);

// Evaluates `flock` whose query body may reference `program`'s
// intermediate predicates alongside the base relations.
Result<Relation> EvaluateFlockWithProgram(
    const QueryFlock& flock, const Program& program, const Database& db,
    const FlockEvalOptions& options = {}, const ExecEnv& env = {},
    FlockEvalInfo* info = nullptr);

}  // namespace qf

#endif  // QF_FLOCKS_PROGRAM_EVAL_H_
