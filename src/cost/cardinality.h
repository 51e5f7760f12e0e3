#ifndef RDFOPT_COST_CARDINALITY_H_
#define RDFOPT_COST_CARDINALITY_H_

#include <vector>

#include "sparql/query.h"
#include "storage/statistics.h"
#include "storage/triple_store.h"

namespace rdfopt {

class EstimateFeedbackStore;

/// Cardinality estimation for triple patterns, CQs, UCQs and joins of
/// estimated inputs; the statistical backbone of both the paper's cost model
/// (§4.1) and the engine's internal one (Fig 9).
///
/// Estimation model:
///  * single patterns: exact counts via the store's permutation indexes
///    (the paper's per-triple statistics, Tables 1/3, are exact);
///  * conjunctions: System-R style — the product of atom cardinalities
///    scaled, for each join variable, by 1/d for every occurrence beyond the
///    first, where d is the largest distinct-value count of that variable
///    among its occurrences (attribute-independence and containment-of-value
///    assumptions);
///  * unions: the sum of disjunct estimates capped by an estimate of the
///    distinct result (duplicate elimination happens under set semantics).
class CardinalityEstimator {
 public:
  /// Both pointees must outlive the estimator.
  CardinalityEstimator(const TripleStore* store, const Statistics* stats)
      : store_(store), stats_(stats) {}

  /// Wires runtime estimate feedback (cost/feedback.h) into EstimateCQ:
  /// a conjunction whose FragmentKey has an observed cardinality
  /// uses it instead of the System-R formula, so repeated misestimates
  /// self-correct. Opt-in and off by default — paper-reproduction runs and
  /// golden plans must not depend on execution history. Null disables.
  /// The pointee must outlive the estimator.
  void set_feedback(const EstimateFeedbackStore* feedback) {
    feedback_ = feedback;
  }
  const EstimateFeedbackStore* feedback() const { return feedback_; }

  /// The store estimates are computed against. The planner reads its
  /// attached HierarchyEncoding (if any) for range collapse, and prices
  /// kScanRange nodes with the store's exact O(1) hid-range counts.
  const TripleStore* store() const { return store_; }

  /// Exact number of triples matching the atom's constant positions
  /// (ignoring repeated-variable filters, which only shrink the result).
  double EstimateAtom(const TriplePattern& atom) const;

  /// Estimated distinct-value count of variable `v` within the scan of
  /// `atom`; the d of the join formula above.
  double EstimateDistinct(const TriplePattern& atom, VarId v) const;

  /// Estimated result rows of the conjunction (before head projection).
  double EstimateCQ(const ConjunctiveQuery& cq) const;

  /// Estimated result rows of the UCQ after duplicate elimination.
  double EstimateUCQ(const UnionQuery& ucq) const;

  /// Estimated rows of joining already-estimated relations: inputs are
  /// (estimated rows, columns); the same per-variable scaling as EstimateCQ
  /// with d approximated by the smaller input's rows.
  double EstimateJoin(
      const std::vector<std::pair<double, std::vector<VarId>>>& inputs) const;

  /// Estimated engine work (rows flowing through operators) to evaluate the
  /// conjunction with the greedy plan the evaluator uses: the first (and
  /// smallest) atom is scanned, every further atom is index-probed from the
  /// accumulated intermediate, so the work is the first scan plus the sizes
  /// of all intermediates. This is the plan-aware replacement for the
  /// literal per-triple sums of the paper's eq. (2); see cost_model.h.
  double EstimateCqPlanWork(const ConjunctiveQuery& cq) const;

 private:
  const TripleStore* store_;
  const Statistics* stats_;
  const EstimateFeedbackStore* feedback_ = nullptr;
};

}  // namespace rdfopt

#endif  // RDFOPT_COST_CARDINALITY_H_
