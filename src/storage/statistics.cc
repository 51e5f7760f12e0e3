#include "storage/statistics.h"

#include <algorithm>
#include <vector>

namespace rdfopt {

Statistics Statistics::Compute(const TripleStore& store) {
  Statistics stats;
  stats.total_triples_ = store.size();

  // Distinct subjects: contiguous in the SPO-ordered full scan.
  ValueId prev_s = kInvalidValueId;
  for (const Triple& t : store.All()) {
    if (t.s != prev_s) {
      ++stats.distinct_subjects_;
      prev_s = t.s;
    }
  }

  // Distinct objects: contiguous in the OSP-ordered full scan.
  ValueId prev_o = kInvalidValueId;
  for (const Triple& t : store.Index(TripleStore::IndexOrder::kOsp)) {
    if (t.o != prev_o) {
      ++stats.distinct_objects_;
      prev_o = t.o;
    }
  }

  for (ValueId p : store.properties()) {
    PropertyStats ps;
    ps.count = store.CountMatches(kAnyValue, p, kAnyValue);
    ps.distinct_subjects = store.CountDistinctSubjectsOfProperty(p);
    ps.distinct_objects = store.CountDistinctObjectsOfProperty(p);
    stats.per_property_.emplace(p, ps);
  }
  return stats;
}

Statistics Statistics::ComputeMerged(const Statistics& before,
                                     const TripleStore& before_store,
                                     const TripleStore& delta) {
  Statistics stats = before;
  // Every summary below walks one of the delta's sorted indexes, where equal
  // keys are contiguous, and counts a key once if the old store lacks it.
  ValueId prev_s = kInvalidValueId;
  for (const Triple& t : delta.All()) {
    if (t.s != prev_s) {
      prev_s = t.s;
      if (before_store.CountMatches(t.s, kAnyValue, kAnyValue) == 0) {
        ++stats.distinct_subjects_;
      }
    }
    if (!before_store.Contains(t)) {
      ++stats.total_triples_;
      ++stats.per_property_[t.p].count;
    }
  }
  ValueId prev_o = kInvalidValueId;
  for (const Triple& t : delta.Index(TripleStore::IndexOrder::kOsp)) {
    if (t.o == prev_o) continue;
    prev_o = t.o;
    if (before_store.CountMatches(kAnyValue, kAnyValue, t.o) == 0) {
      ++stats.distinct_objects_;
    }
  }
  std::vector<ValueId> new_objects;
  for (ValueId p : delta.properties()) {
    PropertyStats& ps = stats.per_property_[p];
    std::span<const Triple> range = delta.Match(kAnyValue, p, kAnyValue);
    new_objects.clear();
    for (size_t i = 0; i < range.size(); ++i) {
      const Triple& t = range[i];
      // PSO order within p: subjects are contiguous.
      if ((i == 0 || range[i - 1].s != t.s) &&
          before_store.CountMatches(t.s, p, kAnyValue) == 0) {
        ++ps.distinct_subjects;
      }
      if (before_store.CountMatches(kAnyValue, p, t.o) == 0) {
        new_objects.push_back(t.o);
      }
    }
    std::sort(new_objects.begin(), new_objects.end());
    ps.distinct_objects += static_cast<size_t>(
        std::unique(new_objects.begin(), new_objects.end()) -
        new_objects.begin());
  }
  return stats;
}

PropertyStats Statistics::ForProperty(ValueId p) const {
  auto it = per_property_.find(p);
  return it == per_property_.end() ? PropertyStats{} : it->second;
}

}  // namespace rdfopt
