#include "apriori/apriori.h"

#include <algorithm>
#include <cstdint>
#include <map>

#include "common/check.h"
#include "common/flat_hash.h"
#include "common/hash.h"
#include "common/thread_pool.h"

namespace qf {
namespace {

// Baskets per morsel for the counting passes. Counts merge by addition,
// so the decomposition affects nothing but scheduling.
constexpr std::size_t kMorselBaskets = 256;

// Sums per-piece count vectors elementwise (integer adds commute, so the
// result is the one-piece one for every thread count). A single piece is
// the result as-is; a morsel skipped after the context tripped is empty.
std::vector<std::size_t> SumCounts(std::vector<std::vector<std::size_t>> parts,
                                   std::size_t width) {
  if (parts.size() == 1) return std::move(parts.front());
  std::vector<std::size_t> sum(width, 0);
  for (const std::vector<std::size_t>& part : parts) {
    for (std::size_t i = 0; i < part.size(); ++i) sum[i] += part[i];
  }
  return sum;
}

// Counts item occurrences over all baskets.
std::vector<std::size_t> CountItems(const BasketData& data, unsigned threads,
                                    OpMetrics* metrics, QueryContext* ctx) {
  return SumCounts(
      RunMorsels<std::vector<std::size_t>>(
          threads, data.baskets.size(), kMorselBaskets, ctx, metrics,
          [&](std::size_t begin, std::size_t end,
              std::vector<std::size_t>& counts) {
            counts.assign(data.item_count(), 0);
            OpGovernor gov(ctx, /*bytes_per_row=*/0);
            for (std::size_t b = begin; b < end; ++b) {
              if (!gov.TickInput()) break;
              for (ItemId item : data.baskets[b]) ++counts[item];
            }
          }),
      data.item_count());
}

// Distinct co-occurring pairs (packed as hi<<32|lo) with their counts:
// a flat table maps pair key -> dense id, keys/counts live in parallel
// dense vectors indexed by that id.
struct PairCounts {
  FlatIdTable table;
  std::vector<std::uint64_t> keys;
  std::vector<std::size_t> counts;

  std::size_t size() const { return keys.size(); }

  void Bump(std::uint64_t key, std::size_t by, std::uint64_t& probes) {
    auto [id, inserted] = table.Upsert(
        HashCombine(0, key),
        [&](std::uint32_t prev) { return keys[prev] == key; }, probes);
    if (inserted) {
      keys.push_back(key);
      counts.push_back(by);
    } else {
      counts[id] += by;
    }
  }
};

// Counts co-occurring pairs over all baskets whose items pass `keep`.
// Several pieces' tables merge by addition in morsel order (the merge
// reuses each key's stored hash — pairs are never re-hashed), which keeps
// the one-piece first-occurrence order of the keys.
template <typename Keep>
PairCounts CountPairs(const BasketData& data, unsigned threads,
                      const Keep& keep, OpMetrics* metrics,
                      QueryContext* ctx) {
  std::vector<PairCounts> partials = RunMorsels<PairCounts>(
      threads, data.baskets.size(), kMorselBaskets, ctx, metrics,
      [&](std::size_t begin, std::size_t end, PairCounts& counts) {
        std::uint64_t probes = 0;
        std::vector<ItemId> filtered;
        // Pair tables grow with the co-occurrence structure; charge one
        // table entry per distinct pair via the governor's admit path.
        OpGovernor gov(ctx, sizeof(std::uint64_t) + sizeof(std::size_t));
        for (std::size_t b = begin; b < end; ++b) {
          if (!gov.TickInput()) break;
          filtered.clear();
          for (ItemId item : data.baskets[b]) {
            if (keep(item)) filtered.push_back(item);
          }
          bool live = true;
          for (std::size_t i = 0; live && i < filtered.size(); ++i) {
            for (std::size_t j = i + 1; j < filtered.size(); ++j) {
              if (!gov.Admit()) {
                live = false;
                break;
              }
              std::uint64_t key =
                  (static_cast<std::uint64_t>(filtered[i]) << 32) |
                  filtered[j];
              counts.Bump(key, 1, probes);
            }
          }
          if (!live) break;
        }
      });
  if (partials.size() == 1) return std::move(partials.front());
  PairCounts pair_counts;
  std::uint64_t merge_probes = 0;
  for (const PairCounts& local : partials) {
    for (std::size_t i = 0; i < local.size(); ++i) {
      std::uint64_t key = local.keys[i];
      auto [id, inserted] = pair_counts.table.Upsert(
          local.table.hash_at(static_cast<std::uint32_t>(i)),
          [&](std::uint32_t prev) { return pair_counts.keys[prev] == key; },
          merge_probes);
      if (inserted) {
        pair_counts.keys.push_back(key);
        pair_counts.counts.push_back(local.counts[i]);
      } else {
        pair_counts.counts[id] += local.counts[i];
      }
    }
  }
  return pair_counts;
}

std::size_t ItemVecHash(const std::vector<ItemId>& v) {
  std::size_t seed = v.size();
  for (ItemId i : v) seed = HashCombine(seed, i);
  return seed;
}

// Flat set over a fixed roster of itemsets (frequent sets or candidates):
// dense ids are roster positions, membership tests hash the probe vector
// once and compare against roster entries in place.
class ItemsetIndex {
 public:
  explicit ItemsetIndex(const std::vector<std::vector<ItemId>>& sets)
      : sets_(sets) {
    table_.Reserve(sets.size());
    std::uint64_t probes = 0;
    for (const std::vector<ItemId>& s : sets_) {
      auto [id, inserted] = table_.Upsert(
          ItemVecHash(s),
          [&](std::uint32_t prev) { return sets_[prev] == s; }, probes);
      QF_CHECK_MSG(inserted, "itemset roster contains duplicates");
      static_cast<void>(id);
    }
  }

  // Roster position of `s`, or FlatIdTable::kNone.
  std::uint32_t Find(const std::vector<ItemId>& s) const {
    std::uint64_t probes = 0;
    return table_.Find(ItemVecHash(s),
                       [&](std::uint32_t prev) { return sets_[prev] == s; },
                       probes);
  }

  bool Contains(const std::vector<ItemId>& s) const {
    return Find(s) != FlatIdTable::kNone;
  }

 private:
  const std::vector<std::vector<ItemId>>& sets_;
  FlatIdTable table_;
};

// Generates level-(k+1) candidates from the frequent level-k sets: join
// pairs sharing their first k-1 items, then prune candidates having any
// infrequent k-subset (the a-priori trick itself).
std::vector<std::vector<ItemId>> GenerateCandidates(
    const std::vector<std::vector<ItemId>>& frequent) {
  std::vector<std::vector<ItemId>> candidates;
  if (frequent.empty()) return candidates;
  ItemsetIndex frequent_set(frequent);
  std::size_t k = frequent.front().size();
  // frequent is sorted lexicographically; sets sharing a (k-1)-prefix are
  // adjacent, so a double loop over each prefix group suffices.
  for (std::size_t i = 0; i < frequent.size(); ++i) {
    for (std::size_t j = i + 1; j < frequent.size(); ++j) {
      if (!std::equal(frequent[i].begin(), frequent[i].end() - 1,
                      frequent[j].begin(), frequent[j].end() - 1)) {
        break;  // prefix group ended
      }
      std::vector<ItemId> candidate = frequent[i];
      candidate.push_back(frequent[j].back());
      // Prune: every k-subset must be frequent. Subsets dropping one of
      // the first k-1 positions need checking (the two parents cover the
      // other two).
      bool prune = false;
      std::vector<ItemId> subset;
      subset.reserve(k);
      for (std::size_t drop = 0; drop + 2 <= k + 1 && !prune; ++drop) {
        subset.clear();
        for (std::size_t p = 0; p < candidate.size(); ++p) {
          if (p != drop) subset.push_back(candidate[p]);
        }
        prune = !frequent_set.Contains(subset);
      }
      if (!prune) candidates.push_back(std::move(candidate));
    }
  }
  std::sort(candidates.begin(), candidates.end());
  return candidates;
}

// Counts candidate occurrences by enumerating the size-k subsets of each
// basket (restricted to items that appear in some candidate) and probing
// a flat candidate index; supports land in `counts`, a dense vector
// indexed by candidate roster position. Supports are identical for every
// thread count.
std::vector<std::size_t> CountCandidates(
    const BasketData& data, const std::vector<std::vector<ItemId>>& candidates,
    unsigned threads, OpMetrics* metrics, QueryContext* ctx) {
  if (candidates.empty()) return {};
  std::size_t k = candidates.front().size();
  ItemsetIndex candidate_set(candidates);
  std::vector<char> live_items(data.item_count(), 0);
  for (const auto& c : candidates) {
    for (ItemId item : c) live_items[item] = 1;
  }

  auto count_range = [&](std::size_t begin, std::size_t end,
                         std::vector<std::size_t>& local) {
    local.assign(candidates.size(), 0);
    std::vector<ItemId> filtered;
    std::vector<std::size_t> choose;
    std::vector<ItemId> subset(k);  // reused across all combinations
    OpGovernor gov(ctx, /*bytes_per_row=*/0);
    for (std::size_t b = begin; b < end; ++b) {
      if (!gov.TickInput()) break;
      filtered.clear();
      for (ItemId item : data.baskets[b]) {
        if (live_items[item]) filtered.push_back(item);
      }
      if (filtered.size() < k) continue;
      // Enumerate k-combinations of `filtered` (sorted, so combinations
      // are sorted too).
      choose.assign(k, 0);
      for (std::size_t i = 0; i < k; ++i) choose[i] = i;
      while (true) {
        // The k-combination space of one basket can itself be huge; poll
        // inside it, too.
        if (!gov.TickInput()) break;
        for (std::size_t i = 0; i < k; ++i) subset[i] = filtered[choose[i]];
        std::uint32_t id = candidate_set.Find(subset);
        if (id != FlatIdTable::kNone) ++local[id];
        // Next combination.
        std::size_t i = k;
        while (i > 0) {
          --i;
          if (choose[i] != i + filtered.size() - k) break;
        }
        if (choose[i] == i + filtered.size() - k) break;
        ++choose[i];
        for (std::size_t j = i + 1; j < k; ++j) choose[j] = choose[j - 1] + 1;
      }
    }
  };

  return SumCounts(
      RunMorsels<std::vector<std::size_t>>(threads, data.baskets.size(),
                                           kMorselBaskets, ctx, metrics,
                                           count_range),
      candidates.size());
}

}  // namespace

Result<BasketData> BasketsFromRelation(const Relation& rel,
                                       const std::string& bid_column,
                                       const std::string& item_column) {
  std::optional<std::size_t> bid_idx = rel.schema().IndexOf(bid_column);
  std::optional<std::size_t> item_idx = rel.schema().IndexOf(item_column);
  if (!bid_idx.has_value() || !item_idx.has_value()) {
    return InvalidArgumentError("basket relation must have columns " +
                                bid_column + " and " + item_column);
  }

  // Assign item ids in sorted-name order so id comparisons equal
  // lexicographic name comparisons.
  std::map<Value, ItemId> item_ids;
  for (const Tuple& t : rel.rows()) item_ids.emplace(t[*item_idx], 0);
  BasketData data;
  data.item_names.reserve(item_ids.size());
  {
    ItemId next = 0;
    for (auto& [value, id] : item_ids) {
      id = next++;
      data.item_names.push_back(value.ToString());
    }
  }

  std::map<Value, std::vector<ItemId>> baskets;
  for (const Tuple& t : rel.rows()) {
    baskets[t[*bid_idx]].push_back(item_ids[t[*item_idx]]);
  }
  data.baskets.reserve(baskets.size());
  for (auto& [bid, items] : baskets) {
    std::sort(items.begin(), items.end());
    items.erase(std::unique(items.begin(), items.end()), items.end());
    data.baskets.push_back(std::move(items));
  }
  return data;
}

std::vector<Itemset> AprioriFrequentItemsets(const BasketData& data,
                                             const AprioriOptions& options,
                                             const ExecEnv& env,
                                             AprioriStats* stats) {
  std::vector<Itemset> result;
  OpMetrics* m = env.metrics;
  TraceSink* tr = env.trace;
  if (m != nullptr && m->op.empty()) m->op = "apriori";

  // Level 1: plain counting pass.
  std::vector<std::vector<ItemId>> frequent;
  {
    OpMetrics* node = m != nullptr ? m->AddChild("count_level", "k=1")
                                   : nullptr;
    ScopedOp span(node, tr);
    std::vector<std::size_t> item_counts =
        CountItems(data, env.threads, node, env.ctx);
    for (ItemId item = 0; item < data.item_count(); ++item) {
      if (item_counts[item] >= options.min_support) {
        frequent.push_back({item});
        result.push_back({{item}, item_counts[item]});
      }
    }
    if (node != nullptr) {
      node->rows_in = data.baskets.size();
      node->tuples_probed = data.item_count();
      node->rows_out = frequent.size();
    }
  }
  if (stats != nullptr) {
    stats->candidates_per_level.push_back(data.item_count());
    stats->frequent_per_level.push_back(frequent.size());
  }

  std::size_t k = 1;
  while (!frequent.empty() &&
         (options.max_size == 0 || k < options.max_size)) {
    if (env.ctx != nullptr && !env.ctx->ok()) break;
    std::vector<std::vector<ItemId>> candidates =
        GenerateCandidates(frequent);
    if (candidates.empty()) break;
    OpMetrics* node =
        m != nullptr ? m->AddChild("count_level", "k=" + std::to_string(k + 1))
                     : nullptr;
    ScopedOp span(node, tr);
    std::vector<std::size_t> counts =
        CountCandidates(data, candidates, env.threads, node, env.ctx);
    frequent.clear();
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      if (counts[i] >= options.min_support) {
        frequent.push_back(candidates[i]);
        result.push_back({candidates[i], counts[i]});
      }
    }
    // `candidates` is sorted, so `frequent` already is.
    if (node != nullptr) {
      node->rows_in = data.baskets.size();
      node->tuples_probed = candidates.size();
      node->rows_out = frequent.size();
    }
    if (stats != nullptr) {
      stats->candidates_per_level.push_back(candidates.size());
      stats->frequent_per_level.push_back(frequent.size());
    }
    ++k;
  }
  return result;
}

std::vector<Itemset> AprioriFrequentPairs(const BasketData& data,
                                          std::size_t min_support,
                                          const ExecEnv& env) {
  const auto [threads, metrics, trace, ctx] = env;
  if (metrics != nullptr && metrics->op.empty()) metrics->op = "apriori";
  // Pass 1: singleton counts; the pre-filter of §1.2.
  std::vector<bool> frequent_item(data.item_count(), false);
  std::size_t frequent_items = 0;
  {
    OpMetrics* node =
        metrics != nullptr ? metrics->AddChild("count_level", "k=1") : nullptr;
    ScopedOp span(node, trace);
    std::vector<std::size_t> item_counts =
        CountItems(data, threads, node, ctx);
    for (ItemId i = 0; i < data.item_count(); ++i) {
      frequent_item[i] = item_counts[i] >= min_support;
      if (frequent_item[i]) ++frequent_items;
    }
    if (node != nullptr) {
      node->rows_in = data.baskets.size();
      node->tuples_probed = data.item_count();
      node->rows_out = frequent_items;
    }
  }

  // Pass 2: count pairs of surviving items only.
  OpMetrics* node =
      metrics != nullptr ? metrics->AddChild("count_level", "k=2") : nullptr;
  ScopedOp span(node, trace);
  PairCounts pair_counts = CountPairs(
      data, threads, [&](ItemId item) { return bool{frequent_item[item]}; },
      node, ctx);

  std::vector<Itemset> result;
  for (std::size_t i = 0; i < pair_counts.size(); ++i) {
    std::uint64_t key = pair_counts.keys[i];
    std::size_t count = pair_counts.counts[i];
    if (count >= min_support) {
      result.push_back({{static_cast<ItemId>(key >> 32),
                         static_cast<ItemId>(key & 0xffffffffu)},
                        count});
    }
  }
  std::sort(result.begin(), result.end(),
            [](const Itemset& a, const Itemset& b) { return a.items < b.items; });
  if (node != nullptr) {
    node->rows_in = data.baskets.size();
    node->tuples_probed = pair_counts.size();
    node->rows_out = result.size();
  }
  return result;
}

std::vector<Itemset> NaiveFrequentPairs(const BasketData& data,
                                        std::size_t min_support,
                                        const ExecEnv& env) {
  const auto [threads, metrics, trace, ctx] = env;
  if (metrics != nullptr && metrics->op.empty()) metrics->op = "naive_pairs";
  OpMetrics* node =
      metrics != nullptr ? metrics->AddChild("count_level", "k=2 (no prefilter)")
                         : nullptr;
  ScopedOp span(node, trace);
  // No pre-filter: every co-occurring pair is counted.
  PairCounts pair_counts =
      CountPairs(data, threads, [](ItemId) { return true; }, node, ctx);
  std::vector<Itemset> result;
  for (std::size_t i = 0; i < pair_counts.size(); ++i) {
    std::uint64_t key = pair_counts.keys[i];
    std::size_t count = pair_counts.counts[i];
    if (count >= min_support) {
      result.push_back({{static_cast<ItemId>(key >> 32),
                         static_cast<ItemId>(key & 0xffffffffu)},
                        count});
    }
  }
  std::sort(result.begin(), result.end(),
            [](const Itemset& a, const Itemset& b) { return a.items < b.items; });
  if (node != nullptr) {
    node->rows_in = data.baskets.size();
    node->tuples_probed = pair_counts.size();
    node->rows_out = result.size();
  }
  return result;
}

Relation ItemsetsToRelation(const std::vector<Itemset>& itemsets,
                            const BasketData& data, std::size_t k,
                            const std::string& name) {
  std::vector<std::string> columns;
  for (std::size_t i = 1; i <= k; ++i) {
    columns.push_back("I" + std::to_string(i));
  }
  columns.push_back("Support");
  Relation out(name, Schema(std::move(columns)));
  for (const Itemset& set : itemsets) {
    if (set.items.size() != k) continue;
    Tuple row;
    for (ItemId item : set.items) {
      QF_CHECK(item < data.item_names.size());
      row.push_back(Value(data.item_names[item]));
    }
    row.push_back(Value(static_cast<std::int64_t>(set.support)));
    out.Add(std::move(row));
  }
  return out;
}

}  // namespace qf
