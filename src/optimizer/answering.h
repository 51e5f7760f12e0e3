#ifndef RDFOPT_OPTIMIZER_ANSWERING_H_
#define RDFOPT_OPTIMIZER_ANSWERING_H_

#include <optional>
#include <string_view>
#include <unordered_map>

#include "common/status.h"
#include "cost/cost_model.h"
#include "engine/evaluator.h"
#include "optimizer/cover.h"
#include "optimizer/ecov.h"
#include "reasoner/saturation.h"
#include "sparql/query.h"

namespace rdfopt {

/// The query answering strategies compared throughout the paper's
/// evaluation (§5): the two fixed reformulations, the two cost-based cover
/// searches, and the saturation baseline.
enum class Strategy {
  kUcq,         ///< Single-fragment cover: the classic UCQ reformulation.
  kScq,         ///< Singleton cover: the SCQ reformulation of [13].
  kEcov,        ///< JUCQ chosen by exhaustive cover search.
  kGcov,        ///< JUCQ chosen by the greedy Algorithm 1.
  kSaturation,  ///< Direct evaluation against the saturated store.
};

std::string_view StrategyName(Strategy strategy);

struct AnswerOptions {
  Strategy strategy = Strategy::kGcov;
  /// Budget for ECov/GCov search (the paper's anytime stop condition).
  double optimizer_time_budget_s = 30.0;
  /// Hard cap on disjuncts materialized per fragment; fragments estimated
  /// above min(cap, engine plan limit) are treated as infeasible without
  /// being materialized.
  size_t max_reformulation_disjuncts = 2'000'000;
  /// Fig 9 alternative: rank covers with the engine's internal EXPLAIN
  /// estimate instead of the §4.1 model.
  bool use_engine_cost_model = false;
  /// Hybrid optimization in the spirit of [11] (paper §1): before shipping a
  /// JUCQ to the engine, drop disjuncts containing an atom whose constant
  /// positions match nothing in the current store — they contribute no
  /// answers on this database. Reduces plan size at the price of a
  /// data-dependent reformulation (must be redone after updates).
  bool prune_empty_disjuncts = false;
  /// Ablation: cost fragments with the literal eq. (2) per-triple
  /// cardinality sums instead of the plan-aware work measure (see
  /// cost_model.h). Exists to quantify the design choice.
  bool literal_scan_sums = false;
  /// Ablation: apply MinimizeQuery before reformulating (removes atoms
  /// redundant w.r.t. the constraints, paper footnote 3).
  bool minimize_query = false;
  /// Keep the evaluated JUCQ in the outcome (for EXPLAIN/SQL export; it can
  /// be large, so off by default).
  bool keep_reformulation = false;
  /// Keep only the executed physical plan in the outcome, without retaining
  /// the (much larger) JUCQ and its variable table. The query service uses
  /// this to harvest plans for its cache. Implied by keep_reformulation.
  bool keep_plan = false;
  /// Drop disjuncts subsumed by other disjuncts of the same component
  /// (classic CQ-containment pruning; data-independent, unlike
  /// prune_empty_disjuncts). Quadratic, so applied only to components of at
  /// most `subsumption_pruning_limit` disjuncts.
  bool prune_subsumed_disjuncts = false;
  size_t subsumption_pruning_limit = 4096;
  /// Run the static plan verifier (engine/plan_verifier.h) on every built
  /// plan before executing it, in all build types; verification failures
  /// surface as kInternal instead of executing a corrupt plan. Debug builds
  /// always verify regardless of this flag. Costs one structural walk per
  /// plan (microseconds), so it is safe to leave on in production when plan
  /// integrity matters more than the last percent of planning latency.
  bool verify_plans = false;
};

/// Everything measured about answering one query; the raw material of every
/// experiment table/figure.
struct AnswerOutcome {
  Relation answers{std::vector<VarId>{}};
  /// Evaluator-measured counters and wall-clock. `eval.elapsed_ms` is the
  /// *authoritative* evaluation time, measured inside the engine around the
  /// whole JUCQ evaluation.
  EvalMetrics eval;
  /// Cover selected (for kUcq/kScq: the corresponding fixed cover).
  Cover chosen_cover;
  double optimize_ms = 0.0;     ///< Cover search (zero for fixed strategies).
  double reformulate_ms = 0.0;  ///< Building the final JUCQ's UCQs.
  double plan_ms = 0.0;         ///< Building the physical plan.
  /// Engine evaluation time. Derived: always equal to `eval.elapsed_ms`
  /// (kept as a top-level field so the phase split optimize/reformulate/
  /// evaluate reads uniformly); do not time it independently.
  double evaluate_ms = 0.0;
  size_t covers_examined = 0;
  bool optimizer_timed_out = false;
  /// Total union terms across the evaluated JUCQ's components.
  size_t union_terms = 0;
  /// Disjuncts dropped by data-aware pruning (prune_empty_disjuncts).
  size_t pruned_union_terms = 0;
  /// Atoms dropped by query minimization (minimize_query).
  size_t minimized_atoms = 0;
  size_t num_components = 0;
  /// The evaluated JUCQ and the variable table covering its fresh
  /// variables; populated only with AnswerOptions::keep_reformulation.
  std::optional<JoinOfUnions> jucq;
  std::optional<VarTable> jucq_vars;
  /// The executed physical plan, with per-node actual row counts — feeds
  /// EXPLAIN / EXPLAIN ANALYZE in the shell and the service's plan cache.
  /// Populated with AnswerOptions::keep_reformulation or keep_plan.
  std::optional<PhysicalPlan> plan;

  double total_ms() const {
    return optimize_ms + reformulate_ms + plan_ms + evaluate_ms;
  }
};

/// Cost oracle over the §4.1 model (or the engine's EXPLAIN), with
/// per-fragment caching of cost inputs: the paper's optimizer time is
/// dominated by "intensive calls to the reformulation and cardinality
/// estimation algorithms". The cache bounds reformulation to one per
/// distinct fragment, and the oracle's AtomStatistics bound store counts to
/// one per distinct atom (DESIGN.md §12). An examined fragment keeps only
/// its cost inputs; AssembleJucq reformulates the chosen cover's fragments
/// again, replaying the variable table from each fragment's recorded
/// watermark so fresh variables get the same ids and names.
///
/// Lives for one planning (one Answer call) on one thread.
class CachingCoverCostOracle : public CoverCostOracle {
 public:
  CachingCoverCostOracle(const ConjunctiveQuery& cq, const VarTable& vars,
                         const Reformulator* reformulator,
                         const CardinalityEstimator* estimator,
                         const Evaluator* evaluator,
                         const AnswerOptions& options);

  double CoverCost(const Cover& cover) override;
  double FragmentCost(const std::vector<int>& fragment) override;

  const AnswerOptions& options() const { return options_; }

  /// Reformulates the fragments of `cover` into the executable JUCQ
  /// (fragment UCQs with proper cover-query heads). `vars` receives fresh
  /// variables. When the options enable data-aware pruning,
  /// empty-on-this-store disjuncts are dropped and counted into `*pruned`,
  /// if non-null.
  Result<JoinOfUnions> AssembleJucq(const Cover& cover, VarTable* vars,
                                    size_t* pruned = nullptr);

  /// Reformulated disjuncts priced so far (`optimizer.disjuncts_priced`).
  size_t disjuncts_priced() const { return disjuncts_priced_; }
  /// Store counts computed so far, one per distinct atom pattern
  /// (`optimizer.atom_store_counts`).
  size_t atom_store_counts() const { return atom_stats_.store_counts(); }

 private:
  /// CoverCost minus the per-candidate trace span.
  double CoverCostImpl(const Cover& cover);

  struct FragmentEntry {
    bool feasible = false;
    /// The variable table's state just before the fragment was
    /// reformulated; replaying from it reproduces the fragment's UCQ.
    VarTable::Watermark vars_mark;
    UcqCostInputs inputs;
    /// Engine-model (Fig 9 alternative) cost and result estimate of the
    /// fragment's component plan. Head-independent, so cacheable per
    /// fragment: candidate covers are priced from these without re-planning
    /// the fragment. Computed only under use_engine_cost_model.
    double engine_cost = 0.0;
    double engine_est_rows = 0.0;
  };
  struct FragmentHash {
    size_t operator()(const std::vector<int>& fragment) const;
  };

  /// The cached entry of `fragment` (its sorted atom indices), computed on
  /// first sight. When that computation happens and `ucq` is non-null, the
  /// fragment's UCQ (head = every original variable of the fragment) is
  /// moved into `*ucq` instead of being dropped.
  const FragmentEntry& GetFragment(const std::vector<int>& fragment,
                                   std::optional<UnionQuery>* ucq = nullptr);
  /// The fragment's atoms, headed by all their variables.
  ConjunctiveQuery FragmentQuery(const std::vector<int>& fragment) const;
  /// True iff some atom of the disjunct matches nothing in the store.
  bool DisjunctIsEmpty(const ConjunctiveQuery& disjunct) const;

  const ConjunctiveQuery& cq_;
  VarTable scratch_vars_;
  const Reformulator* reformulator_;
  const CardinalityEstimator* estimator_;
  const Evaluator* evaluator_;
  AnswerOptions options_;
  size_t effective_disjunct_cap_;
  AtomStatistics atom_stats_;
  size_t disjuncts_priced_ = 0;
  /// By atom list: any number of atoms, unlike a 64-bit mask.
  std::unordered_map<std::vector<int>, FragmentEntry, FragmentHash> cache_;
};

/// The query answering front end of Figure 1: reformulation algorithm +
/// cover optimizer + evaluation engine behind one call.
///
/// Observability: when a TraceSession is installed on the calling thread
/// (common/trace.h), Answer records a span tree — answer.query with
/// minimize / cover_search (one cover.candidate child per examined cover,
/// carrying its estimated cost) / reformulate / evaluate children, the
/// latter nesting the engine's per-component and per-operator spans — and
/// every call reports into MetricsRegistry::Global() (optimizer.* counters,
/// optimizer.*_ms histograms).
class QueryAnswerer {
 public:
  /// `saturated` may be null if kSaturation is never requested. All pointees
  /// must outlive the answerer. `schema` must be finalized.
  QueryAnswerer(const TripleStore* data, const TripleStore* saturated,
                const Schema* schema, const Vocabulary* vocab,
                const Statistics* statistics, const EngineProfile* profile);

  Result<AnswerOutcome> Answer(const Query& query,
                               const AnswerOptions& options) const;

  /// Closes the telemetry feedback loop on this answerer: the estimator
  /// consults `feedback` during planning and the evaluator records executed
  /// disjuncts' actuals into it (cost/feedback.h). Opt-in — the default
  /// (disabled) keeps answering history-free, which the paper benches and
  /// golden plans rely on. Null disables. The pointee must outlive the
  /// answerer.
  void EnableFeedback(EstimateFeedbackStore* feedback) {
    estimator_.set_feedback(feedback);
    evaluator_.set_feedback(feedback);
  }

  /// Wires the materialized-view resolver (DESIGN.md §14) into the final
  /// plan build and execution: planned components are announced to the
  /// catalog, and at execution each one is served from it or computed and
  /// offered back. Opt-in like EnableFeedback — disabled, answering
  /// never touches views, which the paper benches and golden plans rely on.
  /// The cover-search oracle prices fragments with its own resolver-free
  /// planner, so cover choice is identical with views on or off. Null
  /// disables. The pointee must outlive the answerer.
  void EnableViews(ViewResolver* views) { evaluator_.set_views(views); }

  const Evaluator& evaluator() const { return evaluator_; }
  const Reformulator& reformulator() const { return reformulator_; }
  const CardinalityEstimator& estimator() const { return estimator_; }

 private:
  /// Strategy dispatch; `Answer` wraps it with the query-level trace span
  /// and the registry metrics epilogue.
  Result<AnswerOutcome> AnswerImpl(const Query& query,
                                   const AnswerOptions& options) const;
  Result<AnswerOutcome> AnswerBySaturation(const Query& query) const;
  Result<AnswerOutcome> AnswerByCover(const Query& query, const Cover& cover,
                                      CachingCoverCostOracle* oracle,
                                      AnswerOutcome outcome) const;

  const TripleStore* data_;
  const TripleStore* saturated_;
  const Schema* schema_;
  const Vocabulary* vocab_;
  Reformulator reformulator_;
  CardinalityEstimator estimator_;
  Evaluator evaluator_;
  Evaluator saturated_evaluator_;
};

}  // namespace rdfopt

#endif  // RDFOPT_OPTIMIZER_ANSWERING_H_
