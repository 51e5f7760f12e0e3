#ifndef RDFOPT_ENGINE_PLAN_VERIFIER_H_
#define RDFOPT_ENGINE_PLAN_VERIFIER_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "engine/plan.h"

namespace rdfopt {

class Dictionary;
class TripleStore;

/// Static structural verification of PhysicalPlans (DESIGN.md §13): the
/// "verify the plan, not the run" half of the correctness story. The
/// executor and the differential suites check that a plan *ran* correctly;
/// the verifier checks, without executing anything, that a plan *is* a plan
/// the executor's contracts hold for. It runs after every Planner build and
/// after every plan-cache Clone in debug builds, behind
/// AnswerOptions::verify_plans in Release, and under the shell's `.verify`.
///
/// Invariant catalogue (rule ids as reported in PlanViolation::rule):
///   node-ids           ids are the planner's preorder numbering: unique,
///                      consecutive from 0 across shared subplans then the
///                      tree, num_nodes total (subsumes child acyclicity —
///                      a preorder that terminates with each id seen once
///                      cannot revisit a node).
///   arity              every node's out_columns is duplicate-free; child
///                      count matches the operator (joins 2, project/dedup/
///                      barrier 1, leaves 0); join/project/dedup/barrier
///                      output schemas agree with their children's.
///   bindings           variables are produced before consumed: an index
///                      join's atom shares a variable with its child, a
///                      projection's head is covered by child columns plus
///                      constant bindings, a union's disjunct heads are
///                      covered by the matching child.
///   dict-domain        constants in atoms and bindings are real dictionary
///                      ids (< store->dictionary_size(), when a store with
///                      a sized dictionary is attached), never
///                      kInvalidValueId outside all-constant guard atoms.
///   shared-refs        every kSharedRef resolves into shared_subplans, its
///                      schema matches the target's, targets carry their own
///                      index (execute-once coordinator placement), shared
///                      subplans do not nest further refs, and none is left
///                      unreferenced.
///   scan-range         kScanRange intervals are non-empty and sorted
///                      (lo < hi), lie within the attached hierarchy
///                      encoding's hid space, collapse >= 1 term, and drive
///                      their chain.
///   batch-width        the plan's vector width is in [1, kBatchRows] — the
///                      executor's selection vectors are sized to one batch.
///   parallel           a union's merge order is deterministic: one source
///                      disjunct per child, so morsels of any size
///                      concatenate in disjunct order.
///   feasibility        an over-limit union implies a non-OK plan
///                      feasibility (and vice versa), so an "executable"
///                      plan can never hide an infeasible union.
///   estimates          est_rows / est_cost are finite and non-negative
///                      (NaN poisons every downstream cover-cost compare).
///
/// Materialized views add no rule: a plan carries only the component
/// signatures the planner stamped, never view rows, and the executor checks
/// the arity of the rows it reads (DESIGN.md §14).
struct PlanViolation {
  int node_id = -1;     ///< Offending plan node, -1 for plan-level rules.
  std::string rule;     ///< Invariant id from the catalogue above.
  std::string message;  ///< Human-readable diagnosis.
};

struct PlanVerifyResult {
  std::vector<PlanViolation> violations;

  bool ok() const { return violations.empty(); }
  /// One line per violation: "node #7 [shared-refs]: ...".
  std::string ToString() const;
};

/// Verifies `plan` against the invariant catalogue. `store` and `dict` are
/// optional context: the store supplies the attached hierarchy encoding for
/// the scan-range bounds, the dictionary its id domain for dict-domain
/// agreement. Context-dependent checks are skipped without their context,
/// never failed.
PlanVerifyResult VerifyPlan(const PhysicalPlan& plan,
                            const TripleStore* store = nullptr,
                            const Dictionary* dict = nullptr);

/// Structural rendering of the plan with every offending node marked
/// (`<-- VIOLATION ...`), the diagnostic attached to verification failures.
/// Deliberately independent of VarTable/Dictionary so every verify site can
/// produce it; node ids correlate with EXPLAIN and trace spans as usual.
std::string RenderPlanWithViolations(const PhysicalPlan& plan,
                                     const PlanVerifyResult& result);

/// Convenience for release-mode gating (AnswerOptions::verify_plans):
/// OK when the plan verifies, else kInternal carrying the violation list
/// and the marked rendering.
Status VerifyPlanOrError(const PhysicalPlan& plan,
                         const TripleStore* store = nullptr,
                         const Dictionary* dict = nullptr);

/// Debug-build hook (compiled out under NDEBUG): RDFOPT_CHECK-fails with
/// the marked rendering when `plan` does not verify. `site` names the call
/// site in the failure report ("planner", "plan-cache clone").
void DebugCheckPlan(const PhysicalPlan& plan, const TripleStore* store,
                    const char* site);

}  // namespace rdfopt

#endif  // RDFOPT_ENGINE_PLAN_VERIFIER_H_
