#ifndef RDFOPT_COST_COST_MODEL_H_
#define RDFOPT_COST_COST_MODEL_H_

#include <vector>

#include "cost/cardinality.h"
#include "cost/cost_constants.h"
#include "sparql/query.h"

namespace rdfopt {

class HierarchyEncoding;

/// Aggregates of one (reformulated) UCQ consumed by the cost formulas.
/// The paper's model is linear in per-atom scan cardinalities, so these
/// three numbers summarize a UCQ completely for costing purposes.
struct UcqCostInputs {
  /// Number of disjuncts (union terms).
  size_t num_disjuncts = 0;
  /// Estimated engine work (rows through operators) summed over disjuncts.
  /// The paper's eq. (2) uses the raw per-triple cardinalities
  /// Σ_CQ Σ_t |CQ{t}| here; we substitute the plan-aware
  /// CardinalityEstimator::EstimateCqPlanWork because our engine (like the
  /// paper's RDBMSs) evaluates each disjunct with index nested-loop joins,
  /// so its work is driven by the selective atoms, not by the sum of all
  /// pattern sizes. The formula structure is unchanged.
  double scan_sum = 0.0;
  /// Estimated result rows of the UCQ (duplicate-inclusive).
  double est_result = 0.0;
};

/// The paper's cost model (§4.1) for evaluating a JUCQ through an engine:
///
///   c(q_JUCQ) = c_db
///             + Σ_i [ c_eval(U_i) + c_unique(U_i) ]
///             + c_join(U_1..U_m) + c_mat(all but the largest U_k)
///             + c_unique(q_JUCQ)
///
/// with c_eval(U) = (c_t + c_j) · work(U) (eqs. 1-2, work as defined at
/// UcqCostInputs::scan_sum), c_join linear in the sizes of its inputs — the
/// estimated component results (eq. 3), c_mat = c_m times the estimated
/// results of the materialized components (eq. 4), and duplicate
/// elimination costed c_l·n in the hashing regime or c_k·n·log n once
/// results spill (the paper's two c_unique regimes).
///
/// One extension over the literal formulas: a per-union-term overhead
/// (c_union_term · #disjuncts), reflecting per-subplan setup cost. The
/// paper's engines exhibit exactly this behaviour (huge UCQs are expensive
/// even when most disjuncts return nothing) and our profiles emulate it
/// physically, so the calibrated model must see it too.
class PaperCostModel {
 public:
  explicit PaperCostModel(const CostConstants& constants)
      : k_(constants) {}

  /// Duplicate-elimination cost of a result of `rows` tuples.
  double UniqueCost(double rows) const;

  /// c_eval(U) + c_unique(U) + per-term overhead for one component.
  double UcqCost(const UcqCostInputs& ucq) const;

  /// Full JUCQ cost. `est_final_rows` is the estimated size of the joined
  /// result (for the final c_unique). The component with the largest
  /// estimated result is assumed pipelined (§4.1(v)).
  double JucqCost(const std::vector<UcqCostInputs>& components,
                  double est_final_rows) const;

  const CostConstants& constants() const { return k_; }

 private:
  const CostConstants k_;
};

/// Computes the aggregates of a materialized UCQ in one pass over its
/// disjuncts (CardinalityEstimator::EstimateDisjunct): plan-aware
/// per-disjunct work summed into `scan_sum`, disjunct estimates summed into
/// `est_result`, in disjunct order.
///
/// Hierarchy-aware (DESIGN.md §12): when `encoding` is non-null,
/// `num_disjuncts` becomes the post-collapse term count of the same
/// AnalyzeRangeCollapse decomposition the planner executes — each collapsed
/// range is one term — so the c_union_term charge prices the plan the
/// engine will actually run. `scan_sum` is unchanged: a range scan reads
/// exactly the rows its member scans would (the win is per-term overhead,
/// not per-tuple work).
///
/// A non-null `memo` serves the atom statistics of one planning
/// (AtomStatistics); the result is bit-identical either way.
UcqCostInputs ComputeUcqCostInputs(const UnionQuery& ucq,
                                   const CardinalityEstimator& estimator,
                                   const HierarchyEncoding* encoding = nullptr,
                                   AtomStatistics* memo = nullptr);

/// Ablation variant: scan_sum is the literal eq. (2) measure — the sum of
/// the per-triple cardinalities Σ_CQ Σ_t |CQ{t}| — instead of the
/// plan-aware work. Used to quantify the deviation documented in DESIGN.md.
UcqCostInputs ComputeUcqCostInputsLiteral(
    const UnionQuery& ucq, const CardinalityEstimator& estimator,
    AtomStatistics* memo = nullptr);

}  // namespace rdfopt

#endif  // RDFOPT_COST_COST_MODEL_H_
