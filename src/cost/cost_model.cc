#include "cost/cost_model.h"

#include <algorithm>
#include <cmath>

#include "cost/range_collapse.h"

namespace rdfopt {

double PaperCostModel::UniqueCost(double rows) const {
  if (rows <= 1.0) return 0.0;
  if (rows < k_.dedup_spill_rows) return k_.c_l * rows;
  return k_.c_k * rows * std::log2(rows);
}

double PaperCostModel::UcqCost(const UcqCostInputs& ucq) const {
  return (k_.c_t + k_.c_j) * ucq.scan_sum +
         k_.c_union_term * static_cast<double>(ucq.num_disjuncts) +
         UniqueCost(ucq.est_result);
}

double PaperCostModel::JucqCost(const std::vector<UcqCostInputs>& components,
                                double est_final_rows) const {
  double total = k_.c_db;
  for (const UcqCostInputs& ucq : components) total += UcqCost(ucq);

  if (components.size() > 1) {
    // The largest-result component is pipelined; the others materialized.
    size_t largest = 0;
    double join_inputs = 0.0;
    for (size_t i = 0; i < components.size(); ++i) {
      join_inputs += components[i].est_result;
      if (components[i].est_result > components[largest].est_result) {
        largest = i;
      }
    }
    total += k_.c_j * join_inputs;  // eq. (3): linear in the join inputs.
    for (size_t i = 0; i < components.size(); ++i) {
      if (i != largest) {
        total += k_.c_m * components[i].est_result;  // eq. (4)
      }
    }
  }
  total += UniqueCost(est_final_rows);
  return total;
}

UcqCostInputs ComputeUcqCostInputs(const UnionQuery& ucq,
                                   const CardinalityEstimator& estimator,
                                   const HierarchyEncoding* encoding,
                                   AtomStatistics* memo) {
  UcqCostInputs inputs;
  inputs.num_disjuncts = encoding != nullptr
                             ? AnalyzeRangeCollapse(ucq, *encoding).post_terms()
                             : ucq.disjuncts.size();
  for (const ConjunctiveQuery& cq : ucq.disjuncts) {
    const CardinalityEstimator::DisjunctEstimate d =
        estimator.EstimateDisjunct(cq, memo);
    inputs.scan_sum += d.plan_work;
    inputs.est_result += d.rows;
  }
  return inputs;
}

UcqCostInputs ComputeUcqCostInputsLiteral(
    const UnionQuery& ucq, const CardinalityEstimator& estimator,
    AtomStatistics* memo) {
  UcqCostInputs inputs;
  inputs.num_disjuncts = ucq.disjuncts.size();
  for (const ConjunctiveQuery& cq : ucq.disjuncts) {
    for (const TriplePattern& atom : cq.atoms) {
      inputs.scan_sum += memo != nullptr ? memo->Get(atom).card
                                         : estimator.EstimateAtom(atom);
    }
  }
  inputs.est_result = estimator.EstimateUCQ(ucq, memo);
  return inputs;
}

}  // namespace rdfopt
