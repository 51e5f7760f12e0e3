#ifndef RDFOPT_STORAGE_STATISTICS_H_
#define RDFOPT_STORAGE_STATISTICS_H_

#include <cstddef>
#include <unordered_map>

#include "rdf/term.h"
#include "storage/triple_store.h"

namespace rdfopt {

/// Per-property summary used by join-selectivity estimation.
struct PropertyStats {
  size_t count = 0;              ///< Triples with this property.
  size_t distinct_subjects = 0;  ///< Distinct s among them.
  size_t distinct_objects = 0;   ///< Distinct o among them.
};

/// Database statistics backing the cost model (paper §4.1 relies on
/// "estimated cardinalities of various subqueries", §5.2 on "the statistics
/// necessary for estimating the number of results of various fragments").
///
/// Exact single-pattern counts are delegated to the store's indexes (O(log
/// n)); this class adds the distinct-value summaries that single patterns
/// cannot answer and that conjunctive estimates need.
class Statistics {
 public:
  /// One pass over the store per summary; call once per store.
  static Statistics Compute(const TripleStore& store);

  /// Statistics of TripleStore::Merge(before_store, delta), derived from
  /// `before` = Compute(before_store) in O(|delta| log n): point lookups on
  /// `before_store` decide which of the delta's triples, subjects, objects
  /// and per-property subjects/objects are new. Equal, field for field, to
  /// Compute of the merged store.
  static Statistics ComputeMerged(const Statistics& before,
                                  const TripleStore& before_store,
                                  const TripleStore& delta);

  Statistics() = default;

  size_t total_triples() const { return total_triples_; }
  size_t distinct_subjects() const { return distinct_subjects_; }
  size_t distinct_properties() const { return per_property_.size(); }
  size_t distinct_objects() const { return distinct_objects_; }

  /// Stats of one property; zeroed PropertyStats if the property is absent.
  PropertyStats ForProperty(ValueId p) const;

 private:
  size_t total_triples_ = 0;
  size_t distinct_subjects_ = 0;
  size_t distinct_objects_ = 0;
  std::unordered_map<ValueId, PropertyStats> per_property_;
};

}  // namespace rdfopt

#endif  // RDFOPT_STORAGE_STATISTICS_H_
