#include "storage/triple_store.h"

#include <algorithm>
#include <cstddef>
#include <functional>

namespace rdfopt {

namespace {
constexpr ValueId kLo = 0;
constexpr ValueId kHi = kInvalidValueId;  // Max uint32: above every real id.
}  // namespace

TripleStore TripleStore::Build(std::vector<Triple> triples) {
  TripleStore store;
  std::sort(triples.begin(), triples.end(), OrderSpo());
  triples.erase(std::unique(triples.begin(), triples.end()), triples.end());
  store.spo_ = std::move(triples);
  store.pso_ = store.spo_;
  std::sort(store.pso_.begin(), store.pso_.end(), OrderPso());
  store.pos_ = store.pso_;
  // PSO and POS share the primary p key; a stable per-p resort would also
  // work, but a full sort keeps the code simple.
  std::sort(store.pos_.begin(), store.pos_.end(), OrderPos());
  store.osp_ = store.spo_;
  std::sort(store.osp_.begin(), store.osp_.end(), OrderOsp());

  for (const Triple& t : store.pso_) {
    if (store.properties_.empty() || store.properties_.back() != t.p) {
      store.properties_.push_back(t.p);
    }
  }
  return store;
}

namespace {

/// First position in sorted [first, last) not less than `x`, found by
/// exponential probing from `first`: O(log d) comparisons for a target d
/// elements ahead, so walking k sorted targets across n elements costs
/// O(k log(n/k)) instead of O(n).
template <typename It, typename T, typename Less>
It GallopLowerBound(It first, It last, const T& x, Less less) {
  ptrdiff_t step = 1;
  while (step < last - first && less(first[step], x)) {
    first += step;
    step *= 2;
  }
  return std::lower_bound(first, first + std::min(step, last - first), x,
                          less);
}

/// Union of two sorted duplicate-free sequences, sorted and duplicate-free.
/// Each element of the smaller side gallops to its place in the larger one;
/// the run of the larger side before it is bulk-copied, and an element
/// present on both sides is emitted once.
template <typename T, typename Less>
std::vector<T> MergeSets(const std::vector<T>& a, const std::vector<T>& b,
                         Less less) {
  const std::vector<T>& small = a.size() < b.size() ? a : b;
  const std::vector<T>& large = a.size() < b.size() ? b : a;
  std::vector<T> out;
  out.reserve(a.size() + b.size());
  auto pos = large.begin();
  for (const T& x : small) {
    auto it = GallopLowerBound(pos, large.end(), x, less);
    out.insert(out.end(), pos, it);
    if (it != large.end() && !less(x, *it)) ++it;  // Present on both sides.
    out.push_back(x);
    pos = it;
  }
  out.insert(out.end(), pos, large.end());
  return out;
}

}  // namespace

TripleStore TripleStore::Merge(const TripleStore& a, const TripleStore& b) {
  TripleStore store;
  store.spo_ = MergeSets(a.spo_, b.spo_, OrderSpo());
  store.pso_ = MergeSets(a.pso_, b.pso_, OrderPso());
  store.pos_ = MergeSets(a.pos_, b.pos_, OrderPos());
  store.osp_ = MergeSets(a.osp_, b.osp_, OrderOsp());
  store.properties_ =
      MergeSets(a.properties_, b.properties_, std::less<ValueId>());
  return store;
}

template <typename Order>
std::span<const Triple> TripleStore::PrefixRange(
    const std::vector<Triple>& index, Triple lo, Triple hi) const {
  auto begin = std::lower_bound(index.begin(), index.end(), lo, Order());
  auto end = std::upper_bound(begin, index.end(), hi, Order());
  return {index.data() + (begin - index.begin()),
          static_cast<size_t>(end - begin)};
}

std::span<const Triple> TripleStore::Index(IndexOrder order) const {
  switch (order) {
    case IndexOrder::kSpo:
      return spo_;
    case IndexOrder::kPso:
      return pso_;
    case IndexOrder::kPos:
      return pos_;
    case IndexOrder::kOsp:
      return osp_;
  }
  return {};
}

std::span<const Triple> TripleStore::Match(ValueId s, ValueId p,
                                           ValueId o) const {
  const bool bs = s != kAnyValue;
  const bool bp = p != kAnyValue;
  const bool bo = o != kAnyValue;

  if (bs) {
    if (bp) {
      // (s,p,*) and (s,p,o): SPO prefix.
      return PrefixRange<OrderSpo>(spo_, {s, p, bo ? o : kLo},
                                   {s, p, bo ? o : kHi});
    }
    if (bo) {
      // (s,*,o): OSP prefix on (o,s).
      return PrefixRange<OrderOsp>(osp_, {s, kLo, o}, {s, kHi, o});
    }
    // (s,*,*): SPO prefix on s.
    return PrefixRange<OrderSpo>(spo_, {s, kLo, kLo}, {s, kHi, kHi});
  }
  if (bp) {
    if (bo) {
      // (*,p,o): POS prefix on (p,o).
      return PrefixRange<OrderPos>(pos_, {kLo, p, o}, {kHi, p, o});
    }
    // (*,p,*): PSO prefix on p.
    return PrefixRange<OrderPso>(pso_, {kLo, p, kLo}, {kHi, p, kHi});
  }
  if (bo) {
    // (*,*,o): OSP prefix on o.
    return PrefixRange<OrderOsp>(osp_, {kLo, kLo, o}, {kHi, kHi, o});
  }
  return {spo_.data(), spo_.size()};
}

void TripleStore::AttachHierarchy(
    std::shared_ptr<const HierarchyEncoding> encoding) {
  hierarchy_ = std::move(encoding);
  type_by_hid_.clear();
  prop_by_hid_.clear();

  const size_t num_classes = hierarchy_->num_class_hids();
  class_hid_offsets_.assign(num_classes + 1, 0);
  const ValueId rdf_type = hierarchy_->rdf_type();
  if (rdf_type != kAnyValue) {
    for (uint32_t h = 0; h < num_classes; ++h) {
      class_hid_offsets_[h] = type_by_hid_.size();
      // POS prefix on (rdf_type, class): subject-sorted within the hid.
      std::span<const Triple> range =
          Match(kAnyValue, rdf_type, hierarchy_->ClassOfHid(h));
      type_by_hid_.insert(type_by_hid_.end(), range.begin(), range.end());
    }
  }
  class_hid_offsets_[num_classes] = type_by_hid_.size();

  const size_t num_props = hierarchy_->num_property_hids();
  prop_hid_offsets_.assign(num_props + 1, 0);
  for (uint32_t h = 0; h < num_props; ++h) {
    prop_hid_offsets_[h] = prop_by_hid_.size();
    // PSO prefix on the property: (s,o)-sorted within the hid.
    std::span<const Triple> range =
        Match(kAnyValue, hierarchy_->PropertyOfHid(h), kAnyValue);
    prop_by_hid_.insert(prop_by_hid_.end(), range.begin(), range.end());
  }
  prop_hid_offsets_[num_props] = prop_by_hid_.size();
}

std::span<const Triple> TripleStore::MatchClassHidRange(uint32_t lo,
                                                        uint32_t hi) const {
  if (!hierarchy_ || class_hid_offsets_.empty()) return {};
  const uint32_t cap = static_cast<uint32_t>(class_hid_offsets_.size() - 1);
  lo = std::min(lo, cap);
  hi = std::min(hi, cap);
  if (lo >= hi) return {};
  return {type_by_hid_.data() + class_hid_offsets_[lo],
          class_hid_offsets_[hi] - class_hid_offsets_[lo]};
}

std::span<const Triple> TripleStore::MatchPropertyHidRange(uint32_t lo,
                                                           uint32_t hi) const {
  if (!hierarchy_ || prop_hid_offsets_.empty()) return {};
  const uint32_t cap = static_cast<uint32_t>(prop_hid_offsets_.size() - 1);
  lo = std::min(lo, cap);
  hi = std::min(hi, cap);
  if (lo >= hi) return {};
  return {prop_by_hid_.data() + prop_hid_offsets_[lo],
          prop_hid_offsets_[hi] - prop_hid_offsets_[lo]};
}

size_t TripleStore::CountDistinctSubjectsOfProperty(ValueId p) const {
  std::span<const Triple> range = Match(kAnyValue, p, kAnyValue);  // PSO order
  size_t count = 0;
  ValueId prev = kInvalidValueId;
  for (const Triple& t : range) {
    if (t.s != prev) {
      ++count;
      prev = t.s;
    }
  }
  return count;
}

size_t TripleStore::CountDistinctObjectsOfProperty(ValueId p) const {
  // POS order: objects are contiguous within the p prefix.
  std::span<const Triple> range =
      PrefixRange<OrderPos>(pos_, {kLo, p, kLo}, {kHi, p, kHi});
  size_t count = 0;
  ValueId prev = kInvalidValueId;
  for (const Triple& t : range) {
    if (t.o != prev) {
      ++count;
      prev = t.o;
    }
  }
  return count;
}

}  // namespace rdfopt
