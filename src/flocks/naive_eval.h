// The naive generate-and-test evaluator — the executable definition of
// flock semantics (§2: "trying all such assignments in the query,
// evaluating the query, and seeing whether the result passes the filter").
//
// Candidate assignments range over the active domain of each parameter:
// the values occurring in base-relation columns at positions where the
// parameter appears in some relational subgoal. Assignments outside that
// domain bind a positive subgoal to an empty match (yielding an empty
// answer set), so for filters that reject the empty answer set — every
// monotone lower-bound filter with a positive threshold — the restriction
// is exact.
//
// Exponential in the number of parameters; intended as the reference
// oracle in tests and for arbitrary (non-monotone) filters on small data.
#ifndef QF_FLOCKS_NAIVE_EVAL_H_
#define QF_FLOCKS_NAIVE_EVAL_H_

#include <cstddef>

#include "common/exec_env.h"
#include "common/status.h"
#include "flocks/flock.h"

namespace qf {

struct NaiveEvalOptions {
  // Abort with an error if the number of candidate assignments exceeds
  // this bound (guards against accidentally running the oracle on big
  // data).
  std::size_t max_assignments = 10'000'000;
  bool require_nonnegative_sum = true;
};

// Evaluates `flock` by explicit enumeration. Result columns are the
// "$"-tagged parameters in sorted order, matching EvaluateFlock. env.ctx
// is checked once per candidate assignment and governs the
// per-assignment CQ evaluations, so even the oracle honours deadlines
// and cancellation; the oracle runs serially and records no metrics.
Result<Relation> NaiveEvaluateFlock(const QueryFlock& flock,
                                    const Database& db,
                                    const NaiveEvalOptions& options = {},
                                    const ExecEnv& env = {});

}  // namespace qf

#endif  // QF_FLOCKS_NAIVE_EVAL_H_
