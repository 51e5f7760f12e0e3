#ifndef RDFOPT_ENGINE_PLANNER_H_
#define RDFOPT_ENGINE_PLANNER_H_

#include <array>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cost/cardinality.h"
#include "cost/range_collapse.h"
#include "engine/engine_profile.h"
#include "engine/plan.h"
#include "engine/view_resolver.h"
#include "sparql/query.h"

namespace rdfopt {

/// THE greedy atom ordering of the engine (DESIGN.md §3): the first atom is
/// the one with the smallest estimated scan, every further pick prefers
/// atoms sharing a variable with what is ordered so far and, among equals,
/// the smallest scan (ties resolved to the lowest index). This used to be
/// re-derived in the evaluator, the explainer and the engine cost walk; it
/// now exists exactly once (the JUCQ component order applies the same rule)
/// and every consumer goes through the plan built from it. `cards` must
/// hold one estimated scan size per atom. A non-null `pinned` atom counts
/// as already ordered, outside `atoms`: the range chain's driving scan, to
/// which every pick is connected first.
std::vector<size_t> GreedyAtomOrder(const std::vector<TriplePattern>& atoms,
                                    const std::vector<double>& cards,
                                    const TriplePattern* pinned = nullptr);

/// The kQueryTooComplex message the engine reports for a union over the
/// profile's plan limit; shared by the planner (plan feasibility) and the
/// executor so both surfaces show the identical error.
std::string UnionLimitMessage(size_t union_terms, const EngineProfile& profile);

/// Builds PhysicalPlan trees for CQs, UCQs and JUCQs from estimated
/// cardinalities and an engine profile. All ordering and operator-choice
/// decisions are made here, at plan time, from estimates:
///
///  * atom order per disjunct: GreedyAtomOrder above;
///  * operator per join step: index nested loop when the atom binds a
///    variable of the intermediate and the estimated intermediate is 8x
///    smaller than the atom's scan, hash join over a full scan otherwise;
///  * JUCQ component order: CombineComponents (smallest estimate first,
///    then smallest sharing a column), with the largest-estimate component
///    pipelined and all others behind a MaterializeBarrier (paper §4.1(v));
///  * no parallelism: the planner never reads worker_threads, so a plan
///    (and the cover chosen from its costs) is the same at any thread count
///    and a cached plan executes on any evaluator. Morsel sizing belongs to
///    the executor (DESIGN.md §9).
///
/// Every node is annotated with its estimated output rows and the
/// cumulative §4.1-model cost of its subtree, so the same tree serves as
/// the engine's EXPLAIN estimate (Evaluator::ExplainCost) and as the
/// executable plan — estimate and execution cannot drift apart.
class Planner {
 public:
  /// Pointees must outlive the planner.
  Planner(const CardinalityEstimator* estimator, const EngineProfile* profile)
      : estimator_(estimator), profile_(profile) {}

  PhysicalPlan PlanCQ(const ConjunctiveQuery& cq) const;
  PhysicalPlan PlanUCQ(const UnionQuery& ucq) const;
  PhysicalPlan PlanJUCQ(const JoinOfUnions& jucq) const;

  /// The JUCQ component-combination decision, exposed separately so the
  /// cover cost oracle can price a candidate cover from cached per-fragment
  /// costs without re-planning the fragments. Inputs are
  /// (estimated rows, output columns) per component, in component order.
  struct ComponentCombination {
    std::vector<size_t> order;  ///< Join order (indices into the input).
    size_t pipelined = 0;       ///< Component not materialized (largest est).
    /// Materialization (c_m) + join (c_j) cost of combining the components;
    /// zero for a single component.
    double combine_cost = 0.0;
    double est_rows = 0.0;  ///< Estimated rows of the joined result.
  };
  ComponentCombination CombineComponents(
      const std::vector<std::pair<double, std::vector<VarId>>>& components)
      const;

  const CardinalityEstimator& estimator() const { return *estimator_; }
  const EngineProfile& profile() const { return *profile_; }

  /// Wires the materialized-view catalog (DESIGN.md §14); null disables.
  /// With a resolver set, every executable component the planner builds is
  /// announced to it (NoteComponent) and its root stamped with its
  /// ViewSignature. The planner never reads the catalog: whether a
  /// component is served from a view is decided when it executes, so plans
  /// are identical with views on or off apart from the stamps.
  void set_view_resolver(ViewResolver* views) { views_ = views; }

 private:
  /// Identity of a triple pattern (term kinds + variable ids / constant
  /// values per position) — the key of the union-subplan factoring pass:
  /// two scans with equal keys produce the identical relation.
  using SharedAtomKey = std::array<uint64_t, 6>;
  using SharedScanMap = std::map<SharedAtomKey, int>;

  /// Join tree over the disjunct's atoms (constant atoms become boolean
  /// existence guards below the driving scan); no projection or dedup.
  /// Null for a disjunct with no atoms (the always-true CQ). The one chain
  /// builder for plain and collapsed branches:
  ///  * `range` null: the first atom of GreedyAtomOrder drives the chain;
  ///  * `range` set (cq is the range's representative): its masked atom is
  ///    replaced by a kScanRange driving scan over the hid interval (exact
  ///    row count, priced c_r per row), the remaining atoms follow
  ///    GreedyAtomOrder pinned to it, and every prefix estimate is scaled
  ///    by range rows / the masked atom's own estimate.
  /// When `shared_scans` is non-null, scans of atoms in the map become
  /// kSharedRef leaves (est_cost 0 — the shared subplan is priced once at
  /// the union); operator choices are estimate-driven and unaffected.
  std::unique_ptr<PlanNode> BuildCqChain(
      const ConjunctiveQuery& cq, const CollapsedRange* range = nullptr,
      const SharedScanMap* shared_scans = nullptr) const;
  /// Dedup(UnionAll(branch chains)) — one JUCQ component (or a whole UCQ).
  /// Branches are the AnalyzeRangeCollapse decomposition when
  /// profile().hierarchy_ranges is on and the store has a HierarchyEncoding
  /// (one per range, one per residual disjunct), else one per disjunct;
  /// ordered by source disjunct, each built by BuildCqChain. The union's
  /// term count and over-limit flag are the branch count — the same count
  /// the cover oracle's cost inputs charge — and callers read them off the
  /// built union node. Without ranges and with
  /// profile().share_union_subplans, atom scans appearing in two or more
  /// chains are factored into execute-once subplans appended to
  /// `shared_out` (the plan's shared_subplans vector); null disables. With
  /// a view resolver, an executable component is announced to it and its
  /// dedup root stamped with the component's ViewSignature.
  std::unique_ptr<PlanNode> BuildComponent(
      const UnionQuery& ucq, int component_index,
      std::vector<std::unique_ptr<PlanNode>>* shared_out) const;
  /// Preorder ids + node count + plan-level aggregates.
  void Finalize(PhysicalPlan* plan) const;

  const CardinalityEstimator* estimator_;
  const EngineProfile* profile_;
  ViewResolver* views_ = nullptr;
};

}  // namespace rdfopt

#endif  // RDFOPT_ENGINE_PLANNER_H_
