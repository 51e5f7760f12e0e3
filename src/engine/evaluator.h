#ifndef RDFOPT_ENGINE_EVALUATOR_H_
#define RDFOPT_ENGINE_EVALUATOR_H_

#include <atomic>
#include <functional>
#include <optional>
#include <vector>

#include "common/status.h"
#include "common/stopwatch.h"
#include "common/worker_pool.h"
#include "cost/cardinality.h"
#include "engine/engine_profile.h"
#include "engine/plan.h"
#include "engine/planner.h"
#include "engine/relation.h"
#include "sparql/query.h"
#include "storage/triple_store.h"

namespace rdfopt {

class EstimateFeedbackStore;

/// Counters reported by one query evaluation; the observable behaviour the
/// engine profiles differentiate and the calibration harness fits against.
///
/// These are the lump-sum roll-ups of the per-span counters the evaluator
/// records when tracing is on (common/trace.h): every engine.ucq /
/// op.* span carries the deltas it contributed, and their sum is exactly
/// this struct. `elapsed_ms` is the authoritative engine-measured
/// evaluation time; AnswerOutcome::evaluate_ms is derived from it.
struct EvalMetrics {
  size_t rows_scanned = 0;        ///< Index entries read by atom scans.
  size_t join_input_rows = 0;     ///< Total rows fed into join operators.
  size_t hash_probes = 0;         ///< Probe-side lookups across all joins
                                  ///< (index-join probes + hash-table probes).
  size_t union_terms = 0;         ///< Disjuncts evaluated across all UCQs.
  size_t rows_materialized = 0;   ///< Rows of stored (non-pipelined) inputs.
  size_t bytes_materialized = 0;  ///< Bytes spooled at materialize barriers
                                  ///< (cells × sizeof(ValueId)).
  size_t duplicates_removed = 0;  ///< Rows dropped by duplicate elimination.
  size_t range_rows_scanned = 0;  ///< Rows read by hid-interval range scans
                                  ///< (also included in rows_scanned).
  size_t union_terms_collapsed = 0;  ///< Union terms absorbed into ScanRange
                                     ///< branches (pre-collapse − executed).
  size_t view_hits = 0;  ///< Components served from the view catalog (their
                         ///< unions not executed).
  double elapsed_ms = 0.0;        ///< Wall-clock evaluation time.

  /// Adds `other`'s counters into this struct. Parallel workers accumulate
  /// into thread-local instances which the coordinator sums in task order;
  /// integer addition commutes, so totals equal the sequential run's.
  void Accumulate(const EvalMetrics& other) {
    rows_scanned += other.rows_scanned;
    join_input_rows += other.join_input_rows;
    hash_probes += other.hash_probes;
    union_terms += other.union_terms;
    rows_materialized += other.rows_materialized;
    bytes_materialized += other.bytes_materialized;
    duplicates_removed += other.duplicates_removed;
    range_rows_scanned += other.range_rows_scanned;
    union_terms_collapsed += other.union_terms_collapsed;
    view_hits += other.view_hits;
    elapsed_ms += other.elapsed_ms;
  }
};

/// The result of one plan node: a Relation the node owns, or a borrowed
/// pointer into the plan's execute-once shared results (union-subplan
/// factoring). Borrowing is what makes sharing pay off — a kSharedRef
/// consumed by hundreds of union branches hands out the same materialized
/// relation instead of copying it per branch. Take() copies only when a
/// consumer genuinely needs ownership (in practice never: dedup and
/// projection sit above owned union results).
class RelHandle {
 public:
  RelHandle(Relation rel) : owned_(std::move(rel)) {}  // NOLINT
  explicit RelHandle(const Relation* borrowed) : borrowed_(borrowed) {}

  const Relation& get() const {
    return borrowed_ != nullptr ? *borrowed_ : *owned_;
  }
  bool borrowed() const { return borrowed_ != nullptr; }
  /// An owned Relation: moves the owned value out, or deep-copies the
  /// borrowed one.
  Relation Take() && {
    return borrowed_ != nullptr ? borrowed_->Copy() : std::move(*owned_);
  }

 private:
  std::optional<Relation> owned_;
  const Relation* borrowed_ = nullptr;
};

/// The embedded query evaluation engine: executes PhysicalPlans (see
/// engine/plan.h) against a TripleStore under an EngineProfile, with set
/// semantics.
///
/// Stands in for the paper's external RDBMSs (see DESIGN.md §3). The profile
/// contributes (a) hard limits — max union terms, materialization memory
/// budget, timeout — which reproduce the paper's engine failures, and
/// (b) physical emulation of engine idiosyncrasies: per-union-term plan
/// setup work, and extra copy passes over materialized intermediates
/// (`materialization_weight`), so that measured wall-clock genuinely differs
/// across profiles the way the paper's three systems did.
///
/// All planning decisions (atom order, operator choice, JUCQ component
/// order and pipelining) are made by the Planner; the evaluator is a pure
/// plan executor that walks the tree, charges the profile's emulated costs
/// and writes actual row counts back into the plan nodes. The convenience
/// Evaluate* entry points plan-then-execute in one call.
///
/// Intra-query parallelism is an executor-only decision: plans carry no
/// thread count. Union disjunct morsels and the two sides of a JUCQ
/// component join are tasks of one runner (RunTasks). With
/// EngineProfile::worker_threads > 1 they run on the process-wide
/// WorkerPool::Shared pool and their rows, metrics and trace buffers are
/// merged in task order — answers, EvalMetrics totals and EXPLAIN ANALYZE
/// actuals are identical to the inline run at any thread count, and any
/// plan executes at any thread count (DESIGN.md §9).
class Evaluator {
 public:
  /// Pointees must outlive the evaluator. When `estimator` is null the
  /// evaluator owns a statistics-free estimator over `store` (exact atom
  /// counts; join estimates degrade gracefully), enough for planning.
  Evaluator(const TripleStore* store, const EngineProfile* profile,
            const CardinalityEstimator* estimator = nullptr)
      : store_(store), profile_(profile), external_estimator_(estimator) {
    if (external_estimator_ == nullptr) owned_estimator_.emplace(store, nullptr);
  }

  /// Evaluates a CQ, projects onto its head (honouring head_bindings) and
  /// deduplicates. `metrics` may be null.
  Result<Relation> EvaluateCQ(const ConjunctiveQuery& cq,
                              EvalMetrics* metrics) const;

  /// Evaluates a UCQ (union of projected disjuncts, deduplicated).
  Result<Relation> EvaluateUCQ(const UnionQuery& ucq,
                               EvalMetrics* metrics) const;

  /// Evaluates a JUCQ: component UCQs, materialization of all but the
  /// largest, join, final projection and deduplication.
  Result<Relation> EvaluateJUCQ(const JoinOfUnions& jucq,
                                EvalMetrics* metrics) const;

  /// Executes a previously built plan: walks the tree, charges profile
  /// limits/emulation, records trace spans tagged with plan-node ids and
  /// writes `actual_rows`/`executed` into the nodes (prior actuals are
  /// reset first, so a cached plan can be re-executed). `metrics` may be
  /// null. Returns the plan's feasibility error without executing anything
  /// when some union exceeds the profile's plan limit.
  Result<Relation> ExecutePlan(PhysicalPlan* plan, EvalMetrics* metrics) const;

  /// The engine's *internal* cost estimate of running `jucq` ("EXPLAIN"):
  /// the est_cost annotation of the plan the engine would execute. Used as
  /// the alternative cost model of Fig 9. Infinity when infeasible.
  double ExplainCost(const JoinOfUnions& jucq,
                     const CardinalityEstimator& estimator) const;

  /// Wires the estimate-feedback store: after every successful ExecutePlan
  /// the executed union disjuncts' (estimate, actual) pairs are recorded
  /// into `feedback` (see cost/feedback.h). Opt-in, null disables (the
  /// default — deterministic paper runs must not accumulate state). The
  /// pointee must outlive the evaluator and be thread-safe: concurrent
  /// service requests record through their shared snapshot store.
  void set_feedback(EstimateFeedbackStore* feedback) { feedback_ = feedback; }

  /// Wires the materialized-view catalog (DESIGN.md §14). Opt-in like the
  /// feedback store, null disables (the default). With a resolver set, the
  /// planner stamps every executable component with its signature, and
  /// ExecDedup looks each stamped component up: a hit is served from the
  /// stored rows, a miss executes the union and offers the deduplicated
  /// result for opportunistic admission. The pointee must outlive the
  /// evaluator and be thread-safe (lookups and offers arrive from worker
  /// threads when components execute in parallel).
  void set_views(ViewResolver* views) { views_ = views; }

  /// A planner over this evaluator's estimator and profile — the plans it
  /// builds are exactly the plans Evaluate* executes.
  Planner planner() const {
    Planner p(&estimator(), profile_);
    p.set_view_resolver(views_);
    return p;
  }

  const CardinalityEstimator& estimator() const {
    return external_estimator_ != nullptr ? *external_estimator_
                                          : *owned_estimator_;
  }
  const EngineProfile& profile() const { return *profile_; }
  const TripleStore& store() const { return *store_; }

 private:
  /// Per-evaluation state. The `Shared` part is owned by ExecutePlan and
  /// referenced by every task of the query: the timeout deadline is one
  /// clock, the materialization budget one atomic cell counter, and
  /// `cancelled` implements first-error-wins cancellation — a failed task
  /// sets it and every other task of the query aborts at its next
  /// CheckTimeout poll. `metrics`, by contrast, is per-task: pooled tasks
  /// write task-local deltas RunTasks sums in task order on join.
  struct Exec {
    struct Shared {
      Stopwatch timer;
      std::atomic<size_t> materialized_cells{0};
      std::atomic<bool> cancelled{false};
      /// Set once by ExecutePlan: WorkerPool::Shared(worker_threads - 1),
      /// or null when worker_threads <= 1 and every task runs inline. Only
      /// RunTasks reads it (and the union's morsel count); nested tasks
      /// fan back out on it deadlock-free (help-first scheduling).
      WorkerPool* pool = nullptr;
      /// Results of the plan's shared_subplans, in index order. Executed by
      /// the coordinator before the tree runs (and before any fan-out), so
      /// worker tasks borrow them read-only without synchronization.
      const std::vector<Relation>* shared_rels = nullptr;
      /// Views of the components that own shared subplans, looked up by
      /// ExecutePlan before those subplans run (null: no view), by
      /// component root. ExecDedup reads these instead of looking up
      /// again; other components look up when they execute.
      std::vector<std::pair<const PlanNode*, std::shared_ptr<const Relation>>>
          resolved_views;
    };
    Shared* shared = nullptr;        // Never null inside ExecNode.
    EvalMetrics* metrics = nullptr;  // Never null inside ExecNode.
  };

  Status CheckTimeout(const Exec& exec) const;
  /// Accounts (and physically emulates) materializing `rel`; fails when the
  /// profile's memory budget is exceeded.
  Status ChargeMaterialization(const Relation& rel, Exec* exec) const;
  /// Charges `micros` of emulated engine work by spinning on the calling
  /// thread, whichever task it runs: the total charged per query does not
  /// depend on the thread count.
  static void SpinFor(double micros);

  /// The one task runner of unions and component joins: runs task(0) ..
  /// task(n-1). Without a pool they run inline, in index order, on `exec`;
  /// with one, each gets its own Exec (shared query state, task-local
  /// metrics, a scratch trace session when tracing is on), the first
  /// non-kCancelled failure cancels the query, and metrics and spans are
  /// merged into `exec` in task index order. Tasks write their results
  /// into per-index slots, which callers merge in the same order.
  Status RunTasks(size_t n, Exec* exec,
                  const std::function<Status(size_t, Exec*)>& task) const;

  /// Recursive plan-tree interpreter; writes actuals into `node`. Returns a
  /// RelHandle so kSharedRef nodes hand their execute-once result to each
  /// consuming branch by reference instead of by copy.
  Result<RelHandle> ExecNode(PlanNode* node, Exec* exec) const;
  Result<RelHandle> ExecAtomScan(PlanNode* node, Exec* exec) const;
  /// One hid-interval scan over the store's hierarchy shadow index,
  /// replacing the N member scans of a collapsed union group.
  Result<RelHandle> ExecScanRange(PlanNode* node, Exec* exec) const;
  Result<RelHandle> ExecIndexJoin(PlanNode* node, Exec* exec) const;
  /// A component join runs its two sides as RunTasks tasks; a join within
  /// a disjunct runs them in order and short-circuits on an empty left.
  Result<RelHandle> ExecHashJoin(PlanNode* node, Exec* exec) const;
  /// Runs the disjuncts in morsels of consecutive terms, one RunTasks task
  /// each: one morsel without a pool (its accumulator is the result), ~4
  /// per thread with one, concatenated in disjunct order.
  Result<RelHandle> ExecUnionAll(PlanNode* node, Exec* exec) const;
  Result<RelHandle> ExecProject(PlanNode* node, Exec* exec) const;
  /// Duplicate elimination; at a stamped component root, also the one
  /// place a view is read: a resolver hit returns the stored rows
  /// re-labelled with out_columns (the union child stays unexecuted), a
  /// miss runs the union, deduplicates and offers the result.
  Result<RelHandle> ExecDedup(PlanNode* node, Exec* exec) const;
  Result<RelHandle> ExecMaterialize(PlanNode* node, Exec* exec) const;
  /// Borrows the already-materialized shared result this node references.
  /// Charges nothing: the shared subplan's scan work and counters were
  /// attributed once, when the coordinator executed it.
  Result<RelHandle> ExecSharedRef(PlanNode* node, Exec* exec) const;

  const TripleStore* store_;
  const EngineProfile* profile_;
  const CardinalityEstimator* external_estimator_;
  std::optional<CardinalityEstimator> owned_estimator_;
  EstimateFeedbackStore* feedback_ = nullptr;
  ViewResolver* views_ = nullptr;
};

}  // namespace rdfopt

#endif  // RDFOPT_ENGINE_EVALUATOR_H_
