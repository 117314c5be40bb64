// Maximal frequent itemsets as a *sequence of query flocks* — the paper's
// §2.2 footnote: finding maximal frequent sets "would be expressed as a
// sequence of query flocks for increasing cardinalities, with each flock
// depending on the result of the previous flock."
//
// Level k runs the k-itemset flock (optimizer/itemset_plans.h) with its
// (k-1)-subset prefilter steps *materialized from the previous level's
// answer* rather than re-evaluated — the literal "depending on the result
// of the previous flock". A frequent k-set then marks each of its
// (k-1)-subsets non-maximal; what remains unmarked when the levels dry up
// is the maximal collection.
#ifndef QF_MINING_MAXIMAL_H_
#define QF_MINING_MAXIMAL_H_

#include <cstddef>
#include <string>
#include <vector>

#include "common/exec_env.h"
#include "common/status.h"
#include "optimizer/stats.h"
#include "relational/database.h"
#include "relational/relation.h"

namespace qf {

struct MaximalItemsetsOptions {
  double min_support = 1;
  // Safety stop; 0 means run until a level is empty.
  std::size_t max_size = 0;
};

struct MaximalItemsetsResult {
  // Each maximal itemset as a sorted tuple of item values.
  std::vector<Tuple> maximal;
  // Frequent itemsets found per level (level k at index k-1).
  std::vector<std::size_t> frequent_per_level;
  // Levels actually evaluated.
  std::size_t levels = 0;
};

// Runs the flock sequence over `relation`(`bid_column`, `item_column`) in
// `db`. The relation's columns must be named "BID" and "Item"-style; only
// the two named columns are read. Every level's flock evaluation runs
// under `env`, with joins ordered by `stats`, the statistics of `db`.
Result<MaximalItemsetsResult> MaximalFrequentItemsets(
    const Database& db, const DatabaseStats& stats,
    const std::string& relation, const MaximalItemsetsOptions& options,
    const ExecEnv& env = {});

}  // namespace qf

#endif  // QF_MINING_MAXIMAL_H_
