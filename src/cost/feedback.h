#ifndef RDFOPT_COST_FEEDBACK_H_
#define RDFOPT_COST_FEEDBACK_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "sparql/query.h"

namespace rdfopt {

struct PhysicalPlan;

/// Estimated-vs-actual cardinality feedback, keyed by FragmentKey
/// (service/canonical.h; see DESIGN.md §8). The evaluator records the
/// executed union disjuncts of every freshly planned plan here;
/// CardinalityEstimator consults the store on subsequent plannings, so a
/// misestimated fragment self-corrects the next time any query covers it.
/// Each Record also folds the estimate error into the global
/// `cost.estimate_drift` histogram — the planner-quality signal `!prom`
/// exports. Plan-cache hits do not record: their plan was built on the same
/// snapshot, whose store already holds the observation of its first run.
///
/// Deliberately opt-in (a plain pointer wired by QueryService /
/// QueryAnswerer::EnableFeedback, never ambient): paper-reproduction runs
/// and golden EXPLAIN tests must stay order-independent, which an
/// always-consulted global store would break.
///
/// Lookups cost only on a hit (DESIGN.md §8). Cover search asks about every
/// reformulated disjunct and plan-work prefix it prices, and nearly all of
/// them were never executed. Next to the key map the store keeps a counted
/// index of the entries' FragmentShapes: Lookup hashes the conjunction's
/// shape and builds the FragmentKey string only when some entry has that
/// shape. Equal keys imply equal shapes, so the filter never hides an
/// entry.
///
/// Thread-safe (one mutex, taken at most once per call); bounded by FIFO
/// eviction
/// (`max_entries`); cleared wholesale on snapshot epoch changes —
/// observations against retired data must not steer planning against the
/// new store.
class EstimateFeedbackStore {
 public:
  struct Options {
    size_t max_entries = 4096;
    /// Weight of the newest observation in the exponentially weighted
    /// moving average of observed rows.
    double ewma_alpha = 0.5;
  };

  EstimateFeedbackStore() : options_(Options{}) {}
  explicit EstimateFeedbackStore(Options options) : options_(options) {}

  /// One executed fragment: folds `actual_rows` into the fragment's EWMA
  /// and observes the estimate drift ratio.
  void Record(const ConjunctiveQuery& cq, double estimated_rows,
              size_t actual_rows);

  /// Observed (EWMA) row count of the fragment, if it has been executed
  /// under this store; nullopt otherwise. Builds the FragmentKey only when
  /// the fragment's shape is indexed (counted in `cost.feedback_key_builds`).
  std::optional<double> Lookup(const ConjunctiveQuery& cq) const;
  /// The same, with `shape` == FragmentShape(cq) already computed.
  std::optional<double> Lookup(const ConjunctiveQuery& cq,
                               uint64_t shape) const;

  /// Drops every entry (snapshot epoch change).
  void Clear();

  size_t size() const;

 private:
  const Options options_;
  mutable std::mutex mu_;
  struct Entry {
    double rows;     ///< EWMA of the fragment's actual result rows.
    uint64_t shape;  ///< FragmentShape of the fragment.
  };
  std::unordered_map<std::string, Entry> entries_;  ///< By FragmentKey.
  std::deque<std::string> insertion_order_;  ///< FIFO eviction queue.
  /// The counted shape index: entries per FragmentShape, and the same
  /// counts folded into slots (shape modulo kShapeSlots) that Lookup reads
  /// without the mutex to reject most misses before taking it. Both are
  /// written under `mu_`.
  std::unordered_map<uint64_t, uint32_t> shapes_;
  static constexpr size_t kShapeSlots = size_t{1} << 14;
  std::array<std::atomic<uint32_t>, kShapeSlots> shape_slots_{};
};

/// Walks an executed plan and records every union disjunct's
/// (est_rows, actual_rows) pair: kUnionAll nodes carry their source
/// ConjunctiveQuery per child (`disjuncts`), and each child chain's root
/// holds the conjunction-body estimate and actual. Skipped children
/// (short-circuited, never executed) are not recorded, and neither are
/// range-driven children: a kScanRange branch's rows are those of the whole
/// collapsed interval, not of the representative disjunct it is listed
/// under.
void RecordPlanFeedback(const PhysicalPlan& plan,
                        EstimateFeedbackStore* store);

}  // namespace rdfopt

#endif  // RDFOPT_COST_FEEDBACK_H_
