#ifndef RDFOPT_COST_RANGE_COLLAPSE_H_
#define RDFOPT_COST_RANGE_COLLAPSE_H_

#include <cstdint>
#include <vector>

#include "rdf/hierarchy_encoding.h"
#include "sparql/query.h"

namespace rdfopt {

/// One collapsible group of union disjuncts: branches identical up to the
/// constant at a single masked site (a type-atom object, or a predicate)
/// whose hids form one consecutive run — exactly what a kScanRange node over
/// `[lo, hi)` produces as a disjoint bag union.
struct CollapsedRange {
  /// Disjunct indices of the member branches, ascending.
  std::vector<size_t> members;
  /// Member whose conjunctive query stands in for the group (the smallest
  /// disjunct index): its atoms give the range chain's variable layout and
  /// its head bindings the union projection. Sound because the collapse
  /// signature pins head variables and head bindings literally across the
  /// group.
  size_t rep = 0;
  /// Index of the masked atom within the representative's atom list.
  size_t atom_index = 0;
  /// True for a class-hid interval (type-atom object site), false for a
  /// property-hid interval (predicate site).
  bool class_space = false;
  uint32_t lo = 0;
  uint32_t hi = 0;  ///< Exclusive.
};

/// Result of the collapse analysis over one UCQ.
struct RangeCollapsePlan {
  std::vector<CollapsedRange> ranges;
  /// Disjunct indices not absorbed by any range, ascending.
  std::vector<size_t> residual;
  /// Union term count after collapse (each range is one term).
  size_t post_terms() const { return ranges.size() + residual.size(); }
};

/// Pure analysis of `ucq` for hierarchy-range collapse (DESIGN.md §12):
/// groups disjuncts by a canonical signature with one masked site — the
/// first type atom whose constant object is an encoded class, else the
/// first non-type atom whose constant predicate is an encoded property;
/// head variables and head bindings stay literal, non-head variables are
/// renumbered by first occurrence (sound: they are existential) — then
/// decomposes each group's masked constants, mapped to hids and sorted,
/// into maximal consecutive runs. Runs of length >= 2 become ranges;
/// everything else (singleton runs, unmaskable disjuncts, unknown
/// constants, duplicate disjuncts — collapsing a duplicate would drop its
/// bag-union contribution) stays residual. Deterministic: identical input
/// yields identical output.
///
/// The only collapse decision: the planner builds one union branch per
/// range and per residual disjunct from it, with no further pricing step,
/// and the §4.1 cost inputs charge c_union_term on post_terms(). The cover
/// oracle's term count is therefore exactly the planned union's.
RangeCollapsePlan AnalyzeRangeCollapse(const UnionQuery& ucq,
                                       const HierarchyEncoding& encoding);

}  // namespace rdfopt

#endif  // RDFOPT_COST_RANGE_COLLAPSE_H_
