#ifndef RDFOPT_COST_CARDINALITY_H_
#define RDFOPT_COST_CARDINALITY_H_

#include <array>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "sparql/query.h"
#include "storage/statistics.h"
#include "storage/triple_store.h"

namespace rdfopt {

class AtomStatistics;
class EstimateFeedbackStore;

/// One atom's statistics as the conjunction estimate reads them: its scan
/// size (EstimateAtom) and, for each distinct variable of the atom in
/// ascending id order, that variable's EstimateDistinct.
struct AtomStats {
  double card = 0.0;
  size_t num_vars = 0;
  std::array<VarId, 3> vars{};
  std::array<double, 3> distinct{};
};

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
  /// The same, given the atom's EstimateAtom count `card`.
  double EstimateDistinct(const TriplePattern& atom, VarId v,
                          double card) const;

  /// Estimated result rows of the conjunction (before head projection).
  /// A non-null `memo` serves the atom statistics (AtomStatistics).
  double EstimateCQ(const ConjunctiveQuery& cq,
                    AtomStatistics* memo = nullptr) const;

  /// Estimated result rows of the UCQ after duplicate elimination.
  double EstimateUCQ(const UnionQuery& ucq,
                     AtomStatistics* memo = nullptr) const;

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

  /// EstimateCqPlanWork and EstimateCQ of one disjunct from one pass over
  /// its atoms: each atom's statistics are read once and feed both the
  /// plan-work prefixes and the disjunct's own estimate. Bit-identical to
  /// the two separate calls.
  struct DisjunctEstimate {
    double plan_work = 0.0;
    double rows = 0.0;
  };
  DisjunctEstimate EstimateDisjunct(const ConjunctiveQuery& cq,
                                    AtomStatistics* memo) const;

 private:
  /// EstimateAtom and EstimateDistinct of every variable of `atom`.
  AtomStats StatsOf(const TriplePattern& atom) const;
  /// Statistics of every atom of `cq`, in atom order, into `stats`; with
  /// feedback wired, also each atom's AtomShapeCode into `codes`.
  void CollectStats(const ConjunctiveQuery& cq, AtomStatistics* memo,
                    std::vector<AtomStats>* stats,
                    std::vector<uint64_t>* codes) const;
  /// EstimateCqPlanWork over CollectStats' output.
  double PlanWork(const ConjunctiveQuery& cq,
                  const std::vector<AtomStats>& stats,
                  const std::vector<uint64_t>& codes) const;
  /// EstimateCQ over CollectStats' output.
  double Rows(const ConjunctiveQuery& cq, const std::vector<AtomStats>& stats,
              std::vector<uint64_t> codes) const;

  const TripleStore* store_;
  const Statistics* stats_;
  const EstimateFeedbackStore* feedback_ = nullptr;
};

/// Per-planning memo of atom statistics (DESIGN.md §12). Cover search
/// prices every reformulated disjunct of every examined fragment, and those
/// disjuncts are built from a few hundred distinct atoms: the memo computes
/// each atom's EstimateAtom (a store binary search) once per constant
/// pattern, and each EstimateDistinct once per (constant pattern, positions
/// of the variable), whatever the variable names. Values are exactly the
/// estimator's.
///
/// Owned by one planning (CachingCoverCostOracle, one Answer call): not
/// thread-safe, never shared across threads or snapshots. The estimator
/// itself stays const and thread-safe.
class AtomStatistics {
 public:
  /// `estimator` must outlive the memo.
  explicit AtomStatistics(const CardinalityEstimator* estimator)
      : estimator_(estimator) {}

  /// EstimateAtom(atom) and the EstimateDistinct of each of its
  /// variables, memoized.
  AtomStats Get(const TriplePattern& atom);

  /// Store counts computed (memo misses) so far.
  size_t store_counts() const { return entries_.size(); }

 private:
  /// Constants of s, p, o (kAnyValue at variables) and which positions are
  /// variables: the atom up to variable names.
  struct Key {
    ValueId s, p, o;
    uint8_t var_positions;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    size_t operator()(const Key& k) const;
  };
  struct Entry {
    double card = 0.0;
    /// EstimateDistinct by the positions the variable occupies (bit 0 s,
    /// bit 1 p, bit 2 o); valid where `known` has the bit set.
    std::array<double, 8> distinct{};
    uint8_t known = 0;
  };

  const CardinalityEstimator* estimator_;
  std::unordered_map<Key, Entry, KeyHash> entries_;
};

}  // namespace rdfopt

#endif  // RDFOPT_COST_CARDINALITY_H_
