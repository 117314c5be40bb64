// The classic a-priori algorithm ([AIS93], [AS94]) for frequent itemsets —
// the specialized ancestor that query flocks generalize (§1.1–1.2), kept
// here as the baseline the flock machinery is benchmarked against, and as
// the correctness oracle for market-basket flocks.
//
// Also provides the *naive* pair counter — the "conventional optimizer"
// strategy of §1.3 that counts every co-occurring pair without the
// frequent-singleton pre-filter — used to reproduce the 20x claim.
#ifndef QF_APRIORI_APRIORI_H_
#define QF_APRIORI_APRIORI_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/exec_env.h"
#include "common/status.h"
#include "relational/relation.h"

namespace qf {

using ItemId = std::uint32_t;

// Market baskets in a columnar, integer-coded form.
struct BasketData {
  // Per basket: sorted, duplicate-free item ids.
  std::vector<std::vector<ItemId>> baskets;
  // Id -> display name; ids are assigned in sorted name order, so id order
  // equals lexicographic name order (matching "$1 < $2" in flocks).
  std::vector<std::string> item_names;

  std::size_t item_count() const { return item_names.size(); }
};

// Converts a baskets(BID, Item) relation. Columns are identified by name.
Result<BasketData> BasketsFromRelation(const Relation& rel,
                                       const std::string& bid_column,
                                       const std::string& item_column);

struct Itemset {
  std::vector<ItemId> items;  // sorted
  std::size_t support = 0;    // number of baskets containing all items
};

struct AprioriOptions {
  std::size_t min_support = 1;
  // Largest itemset size to mine; 0 = keep going until a level is empty.
  std::size_t max_size = 0;
};

struct AprioriStats {
  // Candidates counted per level (level k at index k-1). The a-priori
  // payoff is visible here: candidate counts stay near the frequent-set
  // counts instead of exploding combinatorially.
  std::vector<std::size_t> candidates_per_level;
  std::vector<std::size_t> frequent_per_level;
};

// Levelwise a-priori: L1 from a counting pass; C_{k+1} from joining L_k
// with itself and pruning candidates with an infrequent k-subset; counting
// by enumerating candidate-matching subsets of each basket.
//
// `env` (shared by the miners below): env.threads workers count baskets
// in morsels with per-morsel tables merged by addition — integer counts,
// so the supports (and the itemsets, emitted in candidate order) are
// identical for every value. env.metrics receives one "count_level" child
// per level ("k=1", "k=2", ...) with rows_in = baskets scanned,
// tuples_probed = candidates counted, rows_out = frequent sets found.
// Counting passes poll env.ctx at basket granularity and stop early once
// it latches; because the miners return plain vectors, a governed caller
// MUST call ctx->Check() afterwards and discard a truncated result.
std::vector<Itemset> AprioriFrequentItemsets(const BasketData& data,
                                             const AprioriOptions& options,
                                             const ExecEnv& env = {},
                                             AprioriStats* stats = nullptr);

// Frequent pairs only, with the a-priori pre-filter (count singletons,
// drop infrequent items, then count surviving pairs).
std::vector<Itemset> AprioriFrequentPairs(const BasketData& data,
                                          std::size_t min_support,
                                          const ExecEnv& env = {});

// The unoptimized baseline: counts every co-occurring pair (the Fig. 1 SQL
// query as a conventional optimizer executes it) and filters at the end.
std::vector<Itemset> NaiveFrequentPairs(const BasketData& data,
                                        std::size_t min_support,
                                        const ExecEnv& env = {});

// Renders itemsets as a relation over item-name columns I1..Ik plus
// Support, for comparison against flock results.
Relation ItemsetsToRelation(const std::vector<Itemset>& itemsets,
                            const BasketData& data, std::size_t k,
                            const std::string& name);

}  // namespace qf

#endif  // QF_APRIORI_APRIORI_H_
