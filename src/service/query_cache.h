#ifndef RDFOPT_SERVICE_QUERY_CACHE_H_
#define RDFOPT_SERVICE_QUERY_CACHE_H_

#include <cstddef>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>

#include "engine/plan.h"
#include "optimizer/cover.h"
#include "storage/epoch.h"

namespace rdfopt {

/// Everything the answering pipeline produced for one canonical query at one
/// epoch, minus the answers themselves: the chosen cover and the physical
/// plan built for it. A cache hit re-executes `plan` (cloned — see
/// PhysicalPlan::Clone) against the pinned snapshot and skips reformulation,
/// cover search and planning entirely.
struct CachedPlanEntry {
  Epoch epoch = 0;
  Cover cover;
  PhysicalPlan plan;  ///< Immutable template; clone before executing.
  size_t union_terms = 0;
  size_t num_components = 0;
  double est_cost = 0.0;
  size_t bytes = 0;  ///< Self-estimated footprint, fixed at insertion.
};

/// Heap footprint of a plan tree, for the cache's byte budget: every heap
/// block the plan owns (nodes, their vectors, the disjunct copies of union
/// nodes, component signatures) at its allocator chunk size. An estimate is
/// all that is needed — the budget exists to bound memory, not to account
/// it exactly — but an estimate that drops the per-block overhead and the
/// signatures undercounts by 10–25% on wide unions.
size_t EstimatePlanBytes(const PhysicalPlan& plan);

/// Thread-safe LRU cache of reformulation/plan results, keyed by
/// (canonical query key, epoch) and bounded by a byte budget.
///
/// The epoch is part of the key, which is the whole invalidation story:
/// after a store mutation bumps the epoch, entries computed under the old
/// epoch can never be looked up again and are reclaimed by ordinary LRU
/// eviction (stale entries stop being touched, so they drift to the cold
/// end). `Put` additionally refuses entries stamped with a non-current
/// epoch, so an in-flight query that raced with a mutation cannot insert a
/// plan the next reader would take for fresh.
class QueryPlanCache {
 public:
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    uint64_t stale_puts = 0;  ///< Puts dropped for carrying an old epoch.
    size_t entries = 0;
    size_t bytes = 0;
  };

  explicit QueryPlanCache(size_t max_bytes) : max_bytes_(max_bytes) {}

  QueryPlanCache(const QueryPlanCache&) = delete;
  QueryPlanCache& operator=(const QueryPlanCache&) = delete;

  /// Returns the entry for (key, epoch) and marks it most-recently-used, or
  /// nullptr. The shared_ptr keeps the entry alive across eviction, so the
  /// caller may clone the plan outside any lock.
  std::shared_ptr<const CachedPlanEntry> Get(const std::string& key,
                                             Epoch epoch);

  /// Inserts `entry` under (key, entry->epoch), evicting least-recently-used
  /// entries until the byte budget holds; returns how many entries this
  /// insertion evicted. Dropped without effect when `entry->epoch !=
  /// current_epoch` (the caller's pinned snapshot went stale mid-flight) or
  /// when the entry alone exceeds the whole budget. `entry->bytes` must be
  /// set (see EstimatePlanBytes).
  size_t Put(const std::string& key,
             std::shared_ptr<const CachedPlanEntry> entry,
             Epoch current_epoch);

  void Clear();

  Stats stats() const;

 private:
  using Entry = std::pair<std::string, std::shared_ptr<const CachedPlanEntry>>;

  // Callers hold mu_.
  void EvictUntilWithinBudget(size_t budget);

  const size_t max_bytes_;

  mutable std::mutex mu_;
  std::list<Entry> lru_;  ///< Front = most recently used.
  std::unordered_map<std::string, std::list<Entry>::iterator> index_;
  size_t bytes_ = 0;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t evictions_ = 0;
  uint64_t stale_puts_ = 0;
};

}  // namespace rdfopt

#endif  // RDFOPT_SERVICE_QUERY_CACHE_H_
