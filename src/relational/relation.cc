#include "relational/relation.h"

#include <algorithm>
#include <cstdint>

#include "common/check.h"
#include "common/flat_hash.h"

namespace qf {

void Relation::Add(Tuple t) {
  QF_CHECK_MSG(t.size() == schema_.arity(), "tuple arity mismatch");
  rows_.push_back(std::move(t));
}

void Relation::AddRow(std::initializer_list<Value> values) {
  Add(Tuple(values));
}

void Relation::Dedup() {
  QF_CHECK_MSG(rows_.size() < 0xFFFFFFFFull,
               "Dedup addresses at most 2^32-1 rows");
  // Flat dedup set over row refs: rows are hashed and compared in place
  // (whole-row identity — no key tuples are built), first occurrences
  // survive in order.
  TupleHash hash;
  FlatTupleSet seen;
  seen.Reserve(rows_.size());
  std::uint64_t probes = 0;
  std::vector<Tuple> unique;
  unique.reserve(rows_.size());
  for (Tuple& t : rows_) {
    // Refs name positions in `unique` (not `rows_`): survivors are moved
    // out of `rows_`, so later probes must compare against their new home.
    bool fresh = seen.Insert(
        static_cast<std::uint32_t>(unique.size()), hash(t),
        [&](std::uint32_t prev) { return unique[prev] == t; }, probes);
    if (fresh) unique.push_back(std::move(t));
  }
  rows_ = std::move(unique);
}

bool Relation::Contains(const Tuple& t) const {
  return std::find(rows_.begin(), rows_.end(), t) != rows_.end();
}

void Relation::SortRows() { std::sort(rows_.begin(), rows_.end()); }

Status CheckAppendable(const Relation& base, const Relation& delta) {
  if (base.schema() == delta.schema()) return Status::Ok();
  return InvalidArgumentError("append schema mismatch: " + base.name() +
                              base.schema().ToString() + " vs " +
                              delta.schema().ToString());
}

Result<Relation> AppendRelation(const Relation& base, const Relation& delta) {
  if (Status s = CheckAppendable(base, delta); !s.ok()) return s;
  QF_CHECK_MSG(base.size() + delta.size() < 0xFFFFFFFFull,
               "AppendRelation addresses at most 2^32-1 rows");
  Relation out(base.name(), base.schema());
  out.mutable_rows() = base.rows();

  TupleHash hash;
  FlatTupleSet seen;
  seen.Reserve(base.size() + delta.size());
  std::uint64_t probes = 0;
  const std::vector<Tuple>& rows = out.rows();
  for (std::uint32_t i = 0; i < base.size(); ++i) {
    seen.Insert(i, hash(rows[i]),
                [&](std::uint32_t prev) { return rows[prev] == rows[i]; },
                probes);
  }
  for (const Tuple& t : delta.rows()) {
    bool fresh = seen.Insert(
        static_cast<std::uint32_t>(out.size()), hash(t),
        [&](std::uint32_t prev) { return out.rows()[prev] == t; }, probes);
    if (fresh) out.Add(t);
  }
  out.set_epoch(base.epoch() + 1);
  out.set_base_rows(base.size());
  return out;
}

std::string Relation::ToString(std::size_t max_rows) const {
  std::string out = name_.empty() ? "<anonymous>" : name_;
  out += schema_.ToString();
  out += " [" + std::to_string(rows_.size()) + " rows]\n";
  for (std::size_t i = 0; i < rows_.size() && i < max_rows; ++i) {
    out += "  " + TupleToString(rows_[i]) + "\n";
  }
  if (rows_.size() > max_rows) {
    out += "  ... (" + std::to_string(rows_.size() - max_rows) + " more)\n";
  }
  return out;
}

}  // namespace qf
