// Relation statistics for cost-based plan selection (§4: "We cannot give a
// definitive answer to such questions without estimates for sizes of join
// results ... the general theory of cost-based optimization applies").
#ifndef QF_OPTIMIZER_STATS_H_
#define QF_OPTIMIZER_STATS_H_

#include <cstddef>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "relational/database.h"
#include "relational/relation.h"

namespace qf {

// Per-column frequency profile: the multiset of per-value occurrence
// counts, sorted descending. Answers "how many values of this column occur
// at least t times, and how much tuple mass do they hold?" — exactly the
// statistic §4.4 says the filter/don't-filter decision wants, since the
// *distribution* of group sizes (not just the mean) determines how much a
// FILTER step removes.
struct FrequencyProfile {
  std::vector<std::size_t> counts;  // descending

  // Number of values occurring >= `threshold` times.
  std::size_t ValuesWithCountAtLeast(double threshold) const;
  // Fraction of tuples whose value occurs >= `threshold` times.
  double MassWithCountAtLeast(double threshold) const;
};

struct RelationStats {
  std::size_t rows = 0;
  // Distinct value count per column.
  std::vector<std::size_t> column_distinct;
  // Optional (ComputeStats(..., detailed=true)): per-column profiles.
  std::vector<FrequencyProfile> column_profiles;

  bool has_profiles() const { return !column_profiles.empty(); }
};

// Scans `rel`, computing row and per-column distinct counts; with
// `detailed`, also the per-column frequency profiles.
RelationStats ComputeStats(const Relation& rel, bool detailed = false);

// Statistics for the relations of a database, by name, kept per relation
// version.
//
// Staleness rule: each entry remembers the Database::GetShared handle it
// was computed from, as a weak_ptr compared by owner (so a freed address
// that is reused never matches). Refresh restats exactly the relations
// whose handle changed and drops the names the database no longer has:
// `LOAD ... APPEND` swings one handle, so it restats one relation, and
// every other entry stays the same object. A holder keeps one instance and
// refreshes it before it plans (the shell's Model() does).
class DatabaseStats {
 public:
  // A new instance refreshed once against `db`.
  static DatabaseStats Compute(const Database& db, bool detailed = false);

  // Brings the statistics up to date with `db` as described above and
  // returns how many names it restatted or dropped. An entry added by Put
  // has no handle, so a refresh drops it, or restats it if `db` has the
  // name. Refresh an instance with one `detailed` value throughout.
  std::size_t Refresh(const Database& db, bool detailed = false);

  // Returns stats for `name`, or nullptr if unknown.
  const RelationStats* Find(const std::string& name) const;

  // Statistics of a relation outside the database (a view, a step result).
  void Put(const std::string& name, RelationStats stats);

 private:
  struct Entry {
    RelationStats stats;
    std::weak_ptr<const Relation> source;  // empty for Put
  };
  std::map<std::string, Entry, std::less<>> by_name_;
};

}  // namespace qf

#endif  // QF_OPTIMIZER_STATS_H_
