#ifndef RDFOPT_STORAGE_TRIPLE_STORE_H_
#define RDFOPT_STORAGE_TRIPLE_STORE_H_

#include <memory>
#include <span>
#include <vector>

#include "rdf/hierarchy_encoding.h"
#include "rdf/triple.h"

namespace rdfopt {

/// Wildcard marker for TripleStore::Match / CountMatches. Safe because
/// dictionary ids are dense from 0 and never reach kInvalidValueId.
inline constexpr ValueId kAnyValue = kInvalidValueId;

/// Immutable, fully-indexed `Triples(s,p,o)` table.
///
/// Mirrors the paper's storage layout (§5.1): one dictionary-encoded triples
/// table "indexed by all permutations of the s,p,o columns ... to give the
/// RDBMS efficient query evaluation opportunities". Four sorted orders (SPO,
/// PSO, POS, OSP) suffice to make every bound-position combination a prefix
/// lookup, so every access pattern — and every exact pattern count the cost
/// model needs — is O(log n) plus output size.
///
/// Stores are immutable once built; saturation and updates produce a new
/// store (Build sorts and removes duplicates, implementing set semantics).
class TripleStore {
 public:
  /// Builds the four indexes from `triples` (duplicates removed).
  static TripleStore Build(std::vector<Triple> triples);

  /// Merges two stores; equals Build of their concatenation. Each of the
  /// four sorted indexes is merged directly, skipping Build's re-sort: every
  /// triple of the smaller store gallops to its place in the larger one, so
  /// comparisons are O(k log(n/k)) for k = min size and the rest of the work
  /// is bulk copying. Merging a small delta into a large store is therefore
  /// dominated by memcpy, not by comparisons.
  static TripleStore Merge(const TripleStore& a, const TripleStore& b);

  TripleStore() = default;
  TripleStore(const TripleStore&) = delete;
  TripleStore& operator=(const TripleStore&) = delete;
  TripleStore(TripleStore&&) = default;
  TripleStore& operator=(TripleStore&&) = default;

  /// Number of (distinct) triples.
  size_t size() const { return spo_.size(); }

  /// All triples matching the pattern, where each position is a bound
  /// ValueId or kAnyValue. The result is a contiguous range of one of the
  /// sorted indexes; its iteration order depends on the chosen index.
  std::span<const Triple> Match(ValueId s, ValueId p, ValueId o) const;

  /// Exact count of matching triples; O(log n).
  size_t CountMatches(ValueId s, ValueId p, ValueId o) const {
    return Match(s, p, o).size();
  }

  bool Contains(const Triple& t) const {
    return CountMatches(t.s, t.p, t.o) > 0;
  }

  /// All triples in SPO order.
  std::span<const Triple> All() const { return spo_; }

  /// One whole sorted index, e.g. kOsp to walk distinct objects in one pass.
  enum class IndexOrder { kSpo, kPso, kPos, kOsp };
  std::span<const Triple> Index(IndexOrder order) const;

  /// Distinct subjects (resp. objects) among triples with property `p`;
  /// O(result) using the PSO (resp. POS) index. Used by statistics.
  size_t CountDistinctSubjectsOfProperty(ValueId p) const;
  size_t CountDistinctObjectsOfProperty(ValueId p) const;

  /// Distinct properties in the store, sorted; O(n) on first call cost is
  /// avoided by precomputing at Build time.
  const std::vector<ValueId>& properties() const { return properties_; }

  /// Attaches a hierarchy encoding (rdf/hierarchy_encoding.h) and builds the
  /// hid-ordered shadow indexes that back the engine's ScanRange operator:
  /// type triples concatenated by class hid (subject-sorted within each hid)
  /// and all triples concatenated by property hid (in per-property PSO
  /// order). Costs one extra copy of the type triples plus one of the
  /// schema-property triples (~2x memory, DESIGN.md §12). Must be called
  /// before the store is shared — the snapshot machinery attaches right
  /// after Build/Merge, so the store stays logically immutable.
  void AttachHierarchy(std::shared_ptr<const HierarchyEncoding> encoding);

  /// The attached encoding, or nullptr. ScanRange planning keys off this.
  const HierarchyEncoding* hierarchy() const { return hierarchy_.get(); }
  std::shared_ptr<const HierarchyEncoding> hierarchy_ptr() const {
    return hierarchy_;
  }

  /// All `s rdf:type C` triples over classes C with hid in [lo, hi),
  /// ordered by (hid, subject). O(1): a contiguous slice of the shadow
  /// index. Empty when no encoding is attached.
  std::span<const Triple> MatchClassHidRange(uint32_t lo, uint32_t hi) const;

  /// All `s p o` triples over properties p with hid in [lo, hi), ordered by
  /// (hid, subject, object). O(1). Empty when no encoding is attached.
  std::span<const Triple> MatchPropertyHidRange(uint32_t lo,
                                                uint32_t hi) const;

  size_t CountClassHidRange(uint32_t lo, uint32_t hi) const {
    return MatchClassHidRange(lo, hi).size();
  }
  size_t CountPropertyHidRange(uint32_t lo, uint32_t hi) const {
    return MatchPropertyHidRange(lo, hi).size();
  }

 private:
  template <typename Order>
  std::span<const Triple> PrefixRange(const std::vector<Triple>& index,
                                      Triple lo, Triple hi) const;

  std::vector<Triple> spo_;
  std::vector<Triple> pso_;
  std::vector<Triple> pos_;
  std::vector<Triple> osp_;
  std::vector<ValueId> properties_;

  // Hierarchy shadow indexes (AttachHierarchy). Offsets have one entry per
  // hid plus a terminator, so any hid range is a single subtraction.
  std::shared_ptr<const HierarchyEncoding> hierarchy_;
  std::vector<Triple> type_by_hid_;
  std::vector<size_t> class_hid_offsets_;
  std::vector<Triple> prop_by_hid_;
  std::vector<size_t> prop_hid_offsets_;
};

}  // namespace rdfopt

#endif  // RDFOPT_STORAGE_TRIPLE_STORE_H_
