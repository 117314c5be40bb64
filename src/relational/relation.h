// Relation: a named, schema-ed collection of tuples with set semantics.
//
// Section 2.3 of the paper fixes set semantics for the query language
// ("some of our claims would not hold for bag semantics"), so every operator
// in relational/ops.h produces duplicate-free output. Builders may append
// duplicates and call Dedup() once at the end, which the workload generators
// rely on.
#ifndef QF_RELATIONAL_RELATION_H_
#define QF_RELATIONAL_RELATION_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "relational/schema.h"
#include "relational/tuple.h"

namespace qf {

class Relation {
 public:
  Relation() = default;
  Relation(std::string name, Schema schema)
      : name_(std::move(name)), schema_(std::move(schema)) {}
  explicit Relation(Schema schema) : schema_(std::move(schema)) {}

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }
  const Schema& schema() const { return schema_; }
  std::size_t arity() const { return schema_.arity(); }
  std::size_t size() const { return rows_.size(); }
  bool empty() const { return rows_.empty(); }

  const std::vector<Tuple>& rows() const { return rows_; }
  std::vector<Tuple>& mutable_rows() { return rows_; }

  // Appends a tuple; aborts on arity mismatch. May introduce duplicates —
  // call Dedup() before handing the relation to set-semantics consumers.
  void Add(Tuple t);

  // Convenience for literals in tests: r.AddRow({Value(1), Value("a")}).
  void AddRow(std::initializer_list<Value> values);

  // Removes duplicate tuples in place; the first occurrence of each
  // tuple survives, in its original relative order.
  void Dedup();

  // True if `t` occurs in the relation (linear scan; intended for tests).
  bool Contains(const Tuple& t) const;

  // Sorts rows lexicographically; gives deterministic output for printing
  // and golden tests.
  void SortRows();

  // Renders up to `max_rows` rows, e.g. for example programs.
  std::string ToString(std::size_t max_rows = 20) const;

  // Delta-batch metadata (incremental evaluation; DESIGN.md §13). A
  // relation produced by AppendRelation carries the append generation
  // (`epoch`, 0 for a relation loaded whole) and the number of leading
  // rows shared verbatim with its predecessor (`base_rows`); the slice
  // [base_rows, size) is the relation's delta batch. In-memory only: the
  // catalog serializes rows, never these fields. Its append records keep
  // them (the apply runs AppendRelation), but a relation decoded whole —
  // from a snapshot or a whole-relation record — starts again at 0 (one
  // that a re-OPEN adopts from the session keeps its own).
  // Lineage is tracked by shared_ptr identity (shell append chains), not
  // by epochs.
  std::uint64_t epoch() const { return epoch_; }
  std::size_t base_rows() const { return base_rows_; }
  void set_epoch(std::uint64_t epoch) { epoch_ = epoch; }
  void set_base_rows(std::size_t n) { base_rows_ = n; }

 private:
  std::string name_;
  Schema schema_;
  std::vector<Tuple> rows_;
  std::uint64_t epoch_ = 0;
  std::size_t base_rows_ = 0;
};

// Set-semantics append: `base`'s rows followed by those rows of `delta`
// not already present, first-occurrence order (delta-internal duplicates
// collapse too). The result's leading base.size() rows are bit-identical
// to base's — the prefix stability incremental delta slices rely on — and
// it carries epoch = base.epoch()+1, base_rows = base.size(). Errors when
// the column names disagree; the relation names may differ (the result
// keeps base's name).
Result<Relation> AppendRelation(const Relation& base, const Relation& delta);

// The check AppendRelation starts with: OK when the column names agree,
// else its InvalidArgument error. Lets a caller refuse an append before
// committing to it (the catalog validates before logging).
Status CheckAppendable(const Relation& base, const Relation& delta);

}  // namespace qf

#endif  // QF_RELATIONAL_RELATION_H_
