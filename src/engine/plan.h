#ifndef RDFOPT_ENGINE_PLAN_H_
#define RDFOPT_ENGINE_PLAN_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "sparql/query.h"

namespace rdfopt {

/// The typed physical-plan tree shared by every consumer of the engine (see
/// DESIGN.md §3): the Planner builds it once per query, the cost model's
/// per-step walk annotates it with estimates, EXPLAIN pretty-prints it, the
/// trace layer tags spans with its node ids, and the Evaluator executes it,
/// writing actual row counts back into the same nodes. Estimate/execution
/// agreement — the premise of the paper's §4 cost model — is therefore true
/// by construction: there is no second derivation of any ordering decision.

/// Physical operator of one plan node.
enum class PlanNodeKind {
  kAtomScan,            ///< Index scan of one triple pattern (or, for an
                        ///< all-constant atom, a boolean existence filter).
  kIndexJoinAtom,       ///< Index nested-loop join: probe the atom's best
                        ///< permutation index once per row of the child.
  kHashJoin,            ///< Hash join of the two children (build on smaller).
  kUnionAll,            ///< Bag union of the children projected onto `head`
                        ///< (per-child constant bindings applied).
  kProject,             ///< Projection onto `head` with constant bindings.
  kDedup,               ///< Duplicate elimination (set semantics).
  kMaterializeBarrier,  ///< Child result is spooled: charged against the
                        ///< engine's materialization budget and overheads.
  kSharedRef,           ///< Reference to an execute-once shared subplan of
                        ///< the enclosing plan (union-subplan factoring):
                        ///< the node produces the shared result by
                        ///< reference, without re-executing it.
  kScanRange,           ///< Hierarchy interval scan (DESIGN.md §12): one
                        ///< slice of the hid-ordered shadow index covering
                        ///< what would otherwise be a union of per-constant
                        ///< scans over `[range_lo, range_hi)`.
};

std::string_view PlanNodeKindName(PlanNodeKind kind);

/// One node of the physical plan. Which payload fields are meaningful
/// depends on `kind`; estimates are filled by the Planner, actuals by the
/// Evaluator when the plan is executed.
struct PlanNode {
  explicit PlanNode(PlanNodeKind k) : kind(k) {}

  PlanNodeKind kind;
  /// Preorder id, unique within the plan; the correlation key between
  /// EXPLAIN output and trace spans (spans carry a `node` attribute).
  int id = -1;
  std::vector<std::unique_ptr<PlanNode>> children;

  // --- Operator payload -------------------------------------------------
  TriplePattern atom;   ///< kAtomScan, kIndexJoinAtom.
  /// kAtomScan: true for the pipelined driving scan at the base of a join
  /// chain (charged per-tuple executor overhead); scans feeding a hash join
  /// are charged through the join instead, mirroring the engine emulation.
  bool driving_scan = false;
  std::vector<VarId> head;  ///< kUnionAll, kProject.
  /// kProject: constants for head variables not covered by the child.
  std::vector<std::pair<VarId, ValueId>> bindings;
  /// kUnionAll: the source disjunct of each child, in child order — carries
  /// the per-child head bindings the union applies and lets EXPLAIN print
  /// the term the child chain evaluates.
  std::vector<ConjunctiveQuery> disjuncts;
  /// kUnionAll: the union exceeds the engine profile's plan limit; the plan
  /// is rendered (EXPLAIN must show infeasible plans) but not executable.
  /// Only a sample of the disjuncts is planned as children then, so
  /// `union_terms` (not `children.size()`) is the authoritative term count.
  bool over_limit = false;
  /// kUnionAll: total number of disjuncts of the union. The children are
  /// independent disjunct subtrees; how many run concurrently is the
  /// executor's decision, never the plan's (DESIGN.md §9).
  size_t union_terms = 0;
  /// kDedup: index of the JUCQ component this node is the root of, or -1.
  /// Component roots carry the per-component `engine.ucq` trace span.
  int component = -1;
  /// kHashJoin: joins two component results (traced as `engine.join`)
  /// rather than two relations inside one disjunct (`op.hash_join`).
  bool component_join = false;
  /// kSharedRef: index into PhysicalPlan::shared_subplans of the subplan
  /// this node references. Also set on the shared subplan's own root (its
  /// index), so EXPLAIN and the slow-query log can label both sides.
  int shared_index = -1;
  /// kScanRange: the hid interval scanned, half-open. `atom` holds the
  /// representative pattern (the first collapsed disjunct's atom) whose
  /// masked position — the type-atom object, or the predicate — ranges over
  /// the interval; the variable layout of every collapsed disjunct is
  /// identical by construction (the collapse signature).
  uint32_t range_lo = 0;
  uint32_t range_hi = 0;
  /// kScanRange: true when the interval ranges over class hids (a type-atom
  /// object; scans the type shadow index), false for property hids (a
  /// predicate; scans the property shadow index).
  bool range_class_space = false;
  /// kScanRange: number of union disjuncts this node collapsed.
  size_t range_terms = 0;
  /// kUnionAll: disjunct count before range collapse (equals `union_terms`
  /// when no collapse happened). EXPLAIN prints "collapsed from N".
  size_t pre_collapse_terms = 0;
  /// kDedup component root: canonical signature of the component UCQ
  /// (ViewSignature), stamped by the planner on every executable component
  /// when a view resolver is wired; empty otherwise. The executor looks it
  /// up in the request's resolver (DESIGN.md §14): on a hit the stored rows
  /// are the component's result and its union child is not executed, so
  /// `executed` on this node without `executed` on the union marks a
  /// component served from a view; on a miss the union runs and its
  /// deduplicated result is offered under this key. The plan holds no rows,
  /// so a cached plan depends only on the query and the snapshot.
  std::string view_signature;

  /// Output schema, fixed at plan time; also the column set of the empty
  /// relation produced when a subtree is short-circuited.
  std::vector<VarId> out_columns;

  // --- Estimates (Planner) and actuals (Evaluator) ----------------------
  double est_rows = 0.0;  ///< Estimated output rows.
  double est_cost = 0.0;  ///< Cumulative §4.1-model cost of the subtree.
  size_t actual_rows = 0;
  bool executed = false;  ///< False until the executor produced this node's
                          ///< result (short-circuited nodes stay false).

  // --- Per-operator runtime accounting (Evaluator) ----------------------
  // Written into every executed plan, not just under EXPLAIN ANALYZE: this
  // is the substrate the estimate-feedback store, the slow-query log and the
  // planned eval-cost governor meter against. Compiled out (left at zero)
  // under RDFOPT_DISABLE_NODE_TELEMETRY — the baseline of the overhead
  // benchmark in BENCH_observability.json.
  double actual_ms = 0.0;  ///< Wall time of this node's own execution step,
                           ///< children included (subtree time, like
                           ///< est_cost is subtree cost).
  /// kAtomScan / kIndexJoinAtom: index rows read to produce the output
  /// (before join filtering); kHashJoin: rows consumed from both children.
  size_t rows_scanned = 0;
  /// kIndexJoinAtom: probe lookups issued (one per driving row);
  /// kHashJoin: hash-table probes (rows of the probe side).
  size_t hash_probes = 0;
  /// kMaterializeBarrier: bytes of tuples spooled into the materialized
  /// result (cells × sizeof(ValueId)).
  size_t bytes_materialized = 0;
};

/// Root query shape of a plan; selects the top-level trace span and the
/// EXPLAIN header.
enum class PlanShape { kCq, kUcq, kJucq };

/// A complete physical plan: the tree plus plan-wide metadata.
struct PhysicalPlan {
  std::unique_ptr<PlanNode> root;
  /// Execute-once subplans factored out of union branches (union-subplan
  /// factoring, DESIGN.md §11): the evaluator runs them before the tree and
  /// every kSharedRef node consumes the materialized result by reference.
  /// Their runtime counters are therefore attributed here, once — not per
  /// consuming branch.
  std::vector<std::unique_ptr<PlanNode>> shared_subplans;
  PlanShape shape = PlanShape::kCq;
  /// OK, or kQueryTooComplex when some union exceeds the profile's plan
  /// limit (the plan still renders; executing it returns this status).
  Status feasibility = Status::OK();
  std::string profile_name;
  /// The profile's per-union plan limit the plan was built against (shown
  /// by EXPLAIN next to over-limit unions).
  size_t union_term_limit = 0;
  size_t num_components = 0;  ///< JUCQ component count (1 for CQ/UCQ).
  size_t union_terms = 0;     ///< Total disjuncts across kUnionAll nodes.
  int num_nodes = 0;
  /// Rows per execution batch of the profile the plan was built for (the
  /// EngineProfile::vector_width); EXPLAIN prints it in the header.
  size_t vector_width = 1;

  /// Total estimated cost of the plan (the engine's EXPLAIN estimate).
  double est_cost() const { return root != nullptr ? root->est_cost : 0.0; }

  /// Clears `executed`/`actual_rows` on every node so the plan can be
  /// executed again (plan caching, benchmarks).
  void ResetActuals();

  /// Deep copy of the whole tree, with actuals cleared. Executing a plan
  /// writes `actual_rows`/`executed` into its nodes, so a cached plan shared
  /// between concurrent requests must be cloned per execution; the cached
  /// instance stays an immutable template.
  PhysicalPlan Clone() const;

  /// Depth-first preorder visit of every node: shared subplans first (they
  /// carry the lowest preorder ids and execute first), then the tree. Each
  /// shared subplan is visited once, regardless of how many kSharedRef
  /// nodes consume it.
  template <typename Fn>
  void ForEachNode(Fn&& fn) const {
    for (const auto& shared : shared_subplans) VisitPre(shared.get(), fn);
    VisitPre(root.get(), fn);
  }

 private:
  template <typename Fn>
  static void VisitPre(const PlanNode* node, Fn& fn) {
    if (node == nullptr) return;
    fn(*node);
    for (const auto& child : node->children) VisitPre(child.get(), fn);
  }
};

/// Stable 64-bit fingerprint of the plan's structure: FNV-1a over the
/// preorder walk of (kind, id, atom terms, union_terms). Identifies a plan
/// shape across clones and processes — the slow-query log and the feedback
/// store key on it, so two executions of the same cached plan correlate.
/// Estimates and actuals are deliberately excluded.
uint64_t PlanDigest(const PhysicalPlan& plan);

}  // namespace rdfopt

#endif  // RDFOPT_ENGINE_PLAN_H_
