#include "optimizer/stats.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "relational/value.h"

namespace qf {

std::size_t FrequencyProfile::ValuesWithCountAtLeast(double threshold) const {
  // counts is descending: binary-search the first element below threshold.
  auto it = std::partition_point(
      counts.begin(), counts.end(),
      [threshold](std::size_t c) { return static_cast<double>(c) >= threshold; });
  return static_cast<std::size_t>(it - counts.begin());
}

double FrequencyProfile::MassWithCountAtLeast(double threshold) const {
  std::size_t total = 0;
  std::size_t kept = 0;
  for (std::size_t c : counts) {
    total += c;
    if (static_cast<double>(c) >= threshold) kept += c;
  }
  return total == 0 ? 0.0 : static_cast<double>(kept) / total;
}

RelationStats ComputeStats(const Relation& rel, bool detailed) {
  RelationStats stats;
  stats.rows = rel.size();
  stats.column_distinct.resize(rel.arity(), 0);
  if (detailed) stats.column_profiles.resize(rel.arity());
  for (std::size_t c = 0; c < rel.arity(); ++c) {
    if (detailed) {
      std::unordered_map<Value, std::size_t, ValueHash> counts;
      counts.reserve(rel.size());
      for (const Tuple& t : rel.rows()) ++counts[t[c]];
      stats.column_distinct[c] = counts.size();
      FrequencyProfile& profile = stats.column_profiles[c];
      profile.counts.reserve(counts.size());
      for (const auto& [value, n] : counts) profile.counts.push_back(n);
      std::sort(profile.counts.rbegin(), profile.counts.rend());
    } else {
      std::unordered_set<Value, ValueHash> distinct;
      distinct.reserve(rel.size());
      for (const Tuple& t : rel.rows()) distinct.insert(t[c]);
      stats.column_distinct[c] = distinct.size();
    }
  }
  return stats;
}

DatabaseStats DatabaseStats::Compute(const Database& db, bool detailed) {
  DatabaseStats stats;
  stats.Refresh(db, detailed);
  return stats;
}

std::size_t DatabaseStats::Refresh(const Database& db, bool detailed) {
  std::size_t changed = std::erase_if(
      by_name_, [&db](const auto& entry) { return !db.Has(entry.first); });
  for (const std::string& name : db.Names()) {
    std::shared_ptr<const Relation> handle = db.GetShared(name);
    Entry& entry = by_name_[name];
    if (!entry.source.owner_before(handle) &&
        !handle.owner_before(entry.source)) {
      continue;  // the same version: its statistics still hold
    }
    entry = {ComputeStats(*handle, detailed), handle};
    ++changed;
  }
  return changed;
}

const RelationStats* DatabaseStats::Find(const std::string& name) const {
  auto it = by_name_.find(name);
  return it == by_name_.end() ? nullptr : &it->second.stats;
}

void DatabaseStats::Put(const std::string& name, RelationStats stats) {
  by_name_[name] = {std::move(stats), {}};
}

}  // namespace qf
