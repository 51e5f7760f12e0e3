#ifndef RDFOPT_SERVICE_QUERY_SERVICE_H_
#define RDFOPT_SERVICE_QUERY_SERVICE_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "cost/feedback.h"
#include "engine/engine_profile.h"
#include "engine/evaluator.h"
#include "optimizer/answering.h"
#include "rdf/graph.h"
#include "service/admission.h"
#include "service/canonical.h"
#include "service/query_cache.h"
#include "service/slow_log.h"
#include "storage/epoch.h"
#include "views/view_advisor.h"
#include "views/view_catalog.h"

namespace rdfopt {

/// Configuration of a QueryService instance.
struct ServiceOptions {
  /// Answering strategy and knobs used on cache misses (see answering.h).
  AnswerOptions answer;
  /// Byte budget of the reformulation/plan cache; 0 effectively disables
  /// caching by capacity (prefer `enable_cache = false` for intent).
  size_t cache_bytes = 64ull << 20;
  bool enable_cache = true;
  /// Run slots: queries evaluating at once. Waiters queue FIFO behind them.
  size_t max_concurrent = 4;
  /// Wait-queue depth beyond which requests are shed (kResourceExhausted).
  size_t max_queue = 64;
  /// Deadline applied when a request specifies none: covers queue wait plus
  /// evaluation.
  double default_deadline_ms = 30'000.0;
  /// Estimate feedback (cost/feedback.h): each snapshot owns a store the
  /// evaluator records executed disjuncts' actuals into and the estimator
  /// consults on later plannings, so misestimated fragments self-correct.
  /// Only freshly planned executions (cache misses) record; a plan-cache
  /// hit reruns a plan whose first run on the same snapshot already did.
  /// Scoped to the snapshot — an epoch bump starts clean, since stale
  /// observations must not steer planning against new data.
  bool enable_feedback = true;
  /// Slow-query log (service/slow_log.h): requests slower than
  /// `slow_query_ms` (or failed) are recorded as JSON lines, keeping the
  /// newest `slow_log_capacity`, sampled 1-in-`slow_log_sample`.
  bool enable_slow_log = true;
  double slow_query_ms = 100.0;
  size_t slow_log_capacity = 128;
  size_t slow_log_sample = 1;
  /// Materialized fragment views (DESIGN.md §14, views/view_catalog.h):
  /// component results are cached by ViewSignature and read back when a
  /// later plan (cached or fresh) executes an equal component, with a
  /// log-mining advisor pinning the hottest fragments.
  /// Off by default — views change nothing about planning decisions, but
  /// the paper-reproduction surfaces stay byte-for-byte history-free.
  bool enable_views = false;
  /// Byte budget of materialized view rows (pinned + unpinned).
  size_t view_bytes = 16ull << 20;
  /// Run an advisor scoring pass every this many queries; 0 disables the
  /// advisor (views stay purely opportunistic/LRU).
  size_t view_advisor_interval = 64;
  /// Advisor knobs: most views pinned at once, and how often a fragment
  /// must have been planned before pinning (see view_advisor.h).
  size_t view_pin_limit = 8;
  uint64_t view_min_observations = 3;
};

/// Per-request overrides.
struct RequestOptions {
  /// End-to-end deadline (queue wait + evaluation); 0 = service default.
  /// Becomes the evaluation timeout for whatever time is left after
  /// admission, so a request never runs past its deadline by more than one
  /// executor timeout check.
  double deadline_ms = 0.0;
  /// Per-query materialization budget in cells, tightening (never loosening)
  /// the engine profile's; 0 = profile default.
  size_t max_materialized_cells = 0;
};

/// What one service request produced.
struct ServiceOutcome {
  Relation answers{std::vector<VarId>{}};
  /// Names of the answer columns, in the submitted query's head order (the
  /// relation's VarIds are canonical ids, meaningless to the caller).
  std::vector<std::string> columns;
  EvalMetrics eval;
  bool cache_hit = false;
  Epoch epoch = 0;  ///< Epoch of the snapshot the answer was computed from.
  Cover chosen_cover;
  double queue_wait_ms = 0.0;
  double optimize_ms = 0.0;     ///< Zero on cache hits: the work was skipped.
  double reformulate_ms = 0.0;  ///< Zero on cache hits.
  double plan_ms = 0.0;         ///< Zero on cache hits.
  double evaluate_ms = 0.0;
  double total_ms = 0.0;  ///< Wall-clock including canonicalize/queue/cache.
  size_t union_terms = 0;
  size_t num_components = 0;
  /// Structural fingerprint of the executed plan (engine/plan.h PlanDigest);
  /// 0 when no plan was available (saturation strategy without caching).
  uint64_t plan_digest = 0;
  /// Per-operator accounting of the executed plan, flattened out of the plan
  /// tree (empty when no plan was available). Feeds the slow-query log.
  std::vector<PlanNodeStats> node_stats;
  /// Batch size of the executed plan (1 = tuple-at-a-time engine).
  size_t vector_width = 1;
};

/// The concurrent front door to the answering pipeline (DESIGN.md §10): a
/// thread-safe facade over canonicalization, a reformulation/plan cache,
/// admission control and epoch-based invalidation.
///
/// The paper's pipeline spends its time in reformulation, cover search and
/// planning — work that depends only on (query, schema, statistics), not on
/// who asks or when. The service memoizes exactly that work: queries are
/// canonicalized (α-equivalent / atom-permuted inputs collapse to one key),
/// and the chosen cover + physical plan are cached per (canonical query,
/// epoch), so a repeat query goes straight to execution. Store mutations
/// advance the epoch and swap in a new immutable snapshot; old cache entries
/// become unreachable (their key embeds the stale epoch) and age out, while
/// in-flight queries keep the snapshot they pinned — no locks are held
/// during evaluation.
///
/// Concurrency contract: `Answer`, `AnswerText`, `ApplyUpdate`, `Refresh`,
/// `stats` and `DecodeRow` may be called from any thread concurrently.
/// Updates serialize among themselves but never block readers beyond a
/// dictionary-id check. The `Graph` must not be mutated externally while the
/// service exists (the service owns its mutation path); terms an update
/// uses must be interned before it, and not concurrently with AnswerText.
class QueryService {
 public:
  /// `graph` must outlive the service. The constructor builds the initial
  /// snapshot (store, statistics, schema closures, and the saturated store
  /// when the strategy is kSaturation) from the graph's current content; the
  /// schema need not be finalized (the service replays constraint triples
  /// into its own finalized per-snapshot Schema).
  QueryService(Graph* graph, const EngineProfile& profile,
               ServiceOptions options = {});

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Answers `query` (already parsed against the service's dictionary).
  /// Errors: kResourceExhausted (shed at admission, or the engine's
  /// materialization budget), kDeadlineExceeded (deadline passed while
  /// queued), kTimeout (evaluation exceeded the remaining deadline or the
  /// profile timeout), or any answering-layer error.
  Result<ServiceOutcome> Answer(const Query& query,
                                const RequestOptions& request = {});

  /// Parses (serialized internally: interning mutates the dictionary) and
  /// answers.
  Result<ServiceOutcome> AnswerText(std::string_view text,
                                    const RequestOptions& request = {});

  /// Appends triples (data and/or schema) to the graph and installs a new
  /// snapshot under a fresh epoch. Data-only deltas cost O(|delta|) beyond
  /// copying the indexes (TripleStore::Merge, Statistics::ComputeMerged, and
  /// IncrementalSaturate under the saturation strategy); a delta containing
  /// schema triples triggers a full rebuild. Updates serialize on
  /// `update_mu_` and hold `graph_mu_` only to check that every id is
  /// interned, so queries parse, run and decode while the snapshot is built.
  /// In-flight queries finish on their pinned snapshot; the plan cache
  /// invalidates lazily via the epoch key. Fails with kInvalidArgument,
  /// adding nothing, if any triple uses an un-interned id.
  Status ApplyUpdate(const std::vector<Triple>& additions);

  /// Rebuilds the snapshot from the graph under a fresh epoch without adding
  /// anything — the hook for out-of-band graph changes made before the
  /// service existed, and a blunt full cache invalidation.
  void Refresh();

  /// Decodes one answer row to term strings under the same lock that guards
  /// dictionary growth, so servers can format results concurrently with
  /// AnswerText calls. Never waits for an update's snapshot build.
  std::vector<std::string> DecodeRow(const Relation& relation,
                                     size_t row) const;

  struct Stats {
    Epoch epoch = 0;
    QueryPlanCache::Stats cache;
    AdmissionController::Stats admission;
    ViewCatalogStats views;
  };
  Stats stats() const;

  Epoch epoch() const { return epoch_.Current(); }
  const EngineProfile& profile() const { return profile_; }
  const ServiceOptions& options() const { return options_; }

  /// The slow-query log (always present; empty when enable_slow_log is
  /// false). Shell `.slowlog` and the server's `!slowlog` read it;
  /// `set_threshold_ms` adjusts the cutoff at runtime.
  SlowQueryLog* slow_log() { return &slow_log_; }
  const SlowQueryLog* slow_log() const { return &slow_log_; }

  /// Entries currently in the active snapshot's estimate-feedback store.
  size_t feedback_entries() const { return CurrentSnapshot()->feedback.size(); }

  /// The materialized-view catalog (always present; only consulted by the
  /// answering paths when enable_views is set). Shell `.views` and the
  /// server's `!views` read it; tests drive it directly.
  ViewCatalog* views() { return &views_; }
  const ViewCatalog* views() const { return &views_; }

 private:
  /// One immutable database state: everything the answering pipeline reads.
  /// Built once per epoch, shared read-only afterwards; requests pin it with
  /// a shared_ptr so updates never invalidate memory under an evaluation.
  /// `saturated` is empty unless MaintainsSaturation().
  struct Snapshot {
    Snapshot(Epoch e, TripleStore d, TripleStore sat, Statistics st,
             Schema sch, bool enable_feedback)
        : epoch(e),
          data(std::move(d)),
          saturated(std::move(sat)),
          stats(std::move(st)),
          schema(std::move(sch)),
          estimator(&data, &stats) {
      if (enable_feedback) estimator.set_feedback(&feedback);
    }

    const Epoch epoch;
    const TripleStore data;
    const TripleStore saturated;
    const Statistics stats;
    const Schema schema;
    /// Estimate feedback scoped to this snapshot's data: born empty with
    /// each epoch, filled by the cache-miss evaluations against it. Mutable because
    /// requests hold the snapshot const — the store is internally
    /// synchronized.
    mutable EstimateFeedbackStore feedback;
    /// Points into this Snapshot's own data/stats (members initialize in
    /// declaration order; the snapshot is heap-pinned and never moved).
    /// Non-const only so the constructor can wire `feedback`; treated as
    /// immutable afterwards.
    CardinalityEstimator estimator;
  };

  std::shared_ptr<const Snapshot> CurrentSnapshot() const;
  void InstallSnapshot(std::shared_ptr<const Snapshot> snapshot);
  /// Full rebuild from the graph's current content. Caller holds update_mu_.
  std::shared_ptr<const Snapshot> BuildSnapshotLocked(Epoch epoch) const;
  /// Replays the graph's constraint triples into a finalized Schema. Caller
  /// holds update_mu_.
  Schema ReplaySchemaLocked() const;
  /// Whether snapshots carry a saturated store: only saturation answering
  /// reads one. Fixed for the service's lifetime (options_ is const).
  bool MaintainsSaturation() const {
    return options_.answer.strategy == Strategy::kSaturation;
  }

  Result<ServiceOutcome> AnswerOnSnapshot(
      const CanonicalizedQuery& canonical,
      const std::shared_ptr<const Snapshot>& snapshot,
      const EngineProfile& request_profile);

  /// View maintenance at an epoch change (DESIGN.md §14): advances the
  /// catalog to `snapshot`'s epoch, handing it the data delta for the
  /// carry-forward test (`delta_is_complete` false on schema epochs, which
  /// forces a wholesale refresh), then re-materializes the returned pinned
  /// views against `snapshot` — with no resolver wired, so a refresh can
  /// never substitute the stale rows it is replacing.
  void MaintainViews(const std::shared_ptr<const Snapshot>& snapshot,
                     const std::vector<Triple>& data_delta,
                     bool delta_is_complete);

  Graph* const graph_;
  const EngineProfile profile_;
  const ServiceOptions options_;

  EpochCounter epoch_;
  QueryPlanCache cache_;
  AdmissionController admission_;
  SlowQueryLog slow_log_;
  ViewCatalog views_;
  ViewAdvisor view_advisor_;
  /// Queries answered since the last advisor pass (view_advisor_interval).
  std::atomic<uint64_t> advisor_tick_{0};

  /// Serializes writers (ApplyUpdate, Refresh): appending to the graph's
  /// triple logs, building the next snapshot and maintaining views. The
  /// graph's data and schema triples are read and written only under it.
  /// Readers never take it.
  std::mutex update_mu_;
  /// Guards the dictionary alone: parse-time interning (AnswerText), term
  /// lookups (DecodeRow) and an update's interned-id check. Held for
  /// microseconds, never across a snapshot build. Order: update_mu_ first.
  mutable std::mutex graph_mu_;

  mutable std::mutex snapshot_mu_;
  std::shared_ptr<const Snapshot> snapshot_;
};

}  // namespace rdfopt

#endif  // RDFOPT_SERVICE_QUERY_SERVICE_H_
