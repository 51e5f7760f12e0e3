#include "service/query_cache.h"

#include <algorithm>

#include "service/epoch_guard.h"

namespace rdfopt {

namespace {

/// Heap footprint of one allocation of `n` bytes: a glibc-style chunk (an
/// 8-byte header, 16-byte granularity, 32 bytes at least). Counting blocks,
/// not payloads, keeps the budget close to what the plans really hold —
/// a plan is tens of thousands of small blocks.
size_t BlockBytes(size_t n) {
  if (n == 0) return 0;
  return std::max<size_t>(32, (n + 8 + 15) & ~size_t{15});
}

template <typename T>
size_t VectorBytes(const std::vector<T>& v) {
  return BlockBytes(v.capacity() * sizeof(T));
}

size_t StringBytes(const std::string& s) {
  // Short strings live inside the object.
  return s.capacity() > 15 ? BlockBytes(s.capacity() + 1) : 0;
}

}  // namespace

size_t EstimatePlanBytes(const PhysicalPlan& plan) {
  size_t bytes = sizeof(PhysicalPlan);
  plan.ForEachNode([&bytes](const PlanNode& node) {
    bytes += BlockBytes(sizeof(PlanNode));
    bytes += VectorBytes(node.children);
    bytes += VectorBytes(node.head);
    bytes += VectorBytes(node.out_columns);
    bytes += VectorBytes(node.bindings);
    bytes += VectorBytes(node.disjuncts);
    for (const ConjunctiveQuery& cq : node.disjuncts) {
      bytes += VectorBytes(cq.atoms) + VectorBytes(cq.head) +
               VectorBytes(cq.head_bindings);
    }
    // A stamped component root owns its ViewSignature: a serialization of
    // the whole component, tens of KB for a wide type union.
    bytes += StringBytes(node.view_signature);
  });
  return bytes;
}

std::shared_ptr<const CachedPlanEntry> QueryPlanCache::Get(
    const std::string& key, Epoch epoch) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it == index_.end() || it->second->second->epoch != epoch) {
    ++misses_;
    return nullptr;
  }
  lru_.splice(lru_.begin(), lru_, it->second);
  ++hits_;
  return it->second->second;
}

size_t QueryPlanCache::Put(const std::string& key,
                           std::shared_ptr<const CachedPlanEntry> entry,
                           Epoch current_epoch) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!EpochWriteAdmissible(entry->epoch, current_epoch)) {
    ++stale_puts_;
    return 0;
  }
  if (entry->bytes > max_bytes_) return 0;  // Would evict everything for one.
  auto it = index_.find(key);
  if (it != index_.end()) {
    // Same canonical query re-inserted: either a stale-epoch entry being
    // replaced by a fresh one, or two concurrent misses of the same query.
    // The newcomer wins; the old shared_ptr stays valid for its holders.
    bytes_ -= it->second->second->bytes;
    lru_.erase(it->second);
    index_.erase(it);
  }
  bytes_ += entry->bytes;
  lru_.emplace_front(key, std::move(entry));
  index_[key] = lru_.begin();
  const uint64_t before = evictions_;
  EvictUntilWithinBudget(max_bytes_);
  return static_cast<size_t>(evictions_ - before);
}

void QueryPlanCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  EvictUntilWithinBudget(0);
}

QueryPlanCache::Stats QueryPlanCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats s;
  s.hits = hits_;
  s.misses = misses_;
  s.evictions = evictions_;
  s.stale_puts = stale_puts_;
  s.entries = lru_.size();
  s.bytes = bytes_;
  return s;
}

void QueryPlanCache::EvictUntilWithinBudget(size_t budget) {
  while (bytes_ > budget && !lru_.empty()) {
    const Entry& victim = lru_.back();
    bytes_ -= victim.second->bytes;
    index_.erase(victim.first);
    lru_.pop_back();
    ++evictions_;
  }
}

}  // namespace rdfopt
