#include "cost/cardinality.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "cost/feedback.h"
#include "engine/planner.h"
#include "service/canonical.h"

namespace rdfopt {

namespace {

ValueId BoundOrAny(const PatternTerm& t) {
  return t.is_var() ? kAnyValue : t.value();
}

/// The atom's distinct variables in ascending id order.
void SortedVariables(const TriplePattern& atom, AtomStats* stats) {
  stats->num_vars = 0;
  for (const PatternTerm* t : {&atom.s, &atom.p, &atom.o}) {
    if (t->is_var()) stats->vars[stats->num_vars++] = t->var();
  }
  std::sort(stats->vars.begin(), stats->vars.begin() + stats->num_vars);
  stats->num_vars = static_cast<size_t>(
      std::unique(stats->vars.begin(), stats->vars.begin() + stats->num_vars) -
      stats->vars.begin());
}

/// The System-R conjunction estimate of CardinalityEstimator::EstimateCQ,
/// built one atom at a time so a plan-work pass reads every prefix's
/// estimate without re-estimating the prefix. Value() reproduces the
/// historical floating-point sequence exactly: atoms multiply in Add
/// order, and the per-variable divisions run in the iteration order of a
/// std::unordered_map filled in first-occurrence order — the container
/// EstimateCQ has always used, so its last bits are part of every golden
/// cost. When every dividing variable divides by the same value the order
/// cannot matter and no map is built.
class ConjunctionEstimate {
 public:
  void Add(const AtomStats& atom);
  /// Estimated rows of the atoms added so far.
  double Value() const;

 private:
  struct VarInfo {
    VarId var;
    int count;
    double max_d;
  };
  double product_ = 1.0;
  std::vector<VarInfo> vars_;  ///< First-occurrence order.
};

void ConjunctionEstimate::Add(const AtomStats& atom) {
  product_ *= atom.card;
  for (size_t i = 0; i < atom.num_vars; ++i) {
    auto it = std::find_if(vars_.begin(), vars_.end(), [&](const VarInfo& v) {
      return v.var == atom.vars[i];
    });
    if (it == vars_.end()) {
      vars_.push_back({atom.vars[i], 0, 0.0});
      it = vars_.end() - 1;
    }
    ++it->count;
    it->max_d = std::max(it->max_d, atom.distinct[i]);
  }
}

double ConjunctionEstimate::Value() const {
  double product = product_;
  if (product == 0.0) return 0.0;
  // Divisions by one common value commute exactly; only distinct divisors
  // need the historical order.
  bool uniform = true;
  double divisor = 0.0;
  for (const VarInfo& v : vars_) {
    if (v.count < 2) continue;
    const double d = std::max(1.0, v.max_d);
    if (divisor == 0.0) divisor = d;
    uniform = uniform && d == divisor;
  }
  if (uniform) {
    for (const VarInfo& v : vars_) {
      for (int i = 1; i < v.count; ++i) product /= divisor;
    }
    return product;
  }
  std::unordered_map<VarId, std::pair<int, double>> ordered;
  for (const VarInfo& v : vars_) ordered[v.var] = {v.count, v.max_d};
  for (const auto& [v, info] : ordered) {
    const auto& [count, max_d] = info;
    for (int i = 1; i < count; ++i) product /= std::max(1.0, max_d);
  }
  return product;
}

}  // namespace

double CardinalityEstimator::EstimateAtom(const TriplePattern& atom) const {
  return static_cast<double>(store_->CountMatches(
      BoundOrAny(atom.s), BoundOrAny(atom.p), BoundOrAny(atom.o)));
}

double CardinalityEstimator::EstimateDistinct(const TriplePattern& atom,
                                              VarId v) const {
  return EstimateDistinct(atom, v, EstimateAtom(atom));
}

double CardinalityEstimator::EstimateDistinct(const TriplePattern& atom,
                                              VarId v, double card) const {
  double distinct = card;
  const bool in_s = atom.s.is_var() && atom.s.var() == v;
  const bool in_p = atom.p.is_var() && atom.p.var() == v;
  const bool in_o = atom.o.is_var() && atom.o.var() == v;
  if (!in_s && !in_p && !in_o) return 1.0;
  // Without statistics (an Evaluator's fallback estimator) the scan size is
  // the only distinct-count bound available.
  if (stats_ == nullptr) return std::max(1.0, card);

  if (!atom.p.is_var()) {
    const PropertyStats ps = stats_->ForProperty(atom.p.value());
    if (in_s && !atom.o.is_var()) {
      // (?v, p, o): each row has a distinct subject bound to o's group; the
      // scan size itself is the best bound.
      distinct = card;
    } else if (in_s) {
      distinct = static_cast<double>(ps.distinct_subjects);
    } else if (in_o) {
      distinct = static_cast<double>(ps.distinct_objects);
    }
  } else {
    if (in_p) {
      distinct = static_cast<double>(stats_->distinct_properties());
    } else if (in_s) {
      distinct = static_cast<double>(stats_->distinct_subjects());
    } else {
      distinct = static_cast<double>(stats_->distinct_objects());
    }
  }
  return std::max(1.0, std::min(distinct, card));
}

AtomStats CardinalityEstimator::StatsOf(const TriplePattern& atom) const {
  AtomStats stats;
  stats.card = EstimateAtom(atom);
  SortedVariables(atom, &stats);
  for (size_t i = 0; i < stats.num_vars; ++i) {
    stats.distinct[i] = EstimateDistinct(atom, stats.vars[i], stats.card);
  }
  return stats;
}

void CardinalityEstimator::CollectStats(const ConjunctiveQuery& cq,
                                        AtomStatistics* memo,
                                        std::vector<AtomStats>* stats,
                                        std::vector<uint64_t>* codes) const {
  stats->reserve(cq.atoms.size());
  for (const TriplePattern& atom : cq.atoms) {
    stats->push_back(memo != nullptr ? memo->Get(atom) : StatsOf(atom));
  }
  if (feedback_ == nullptr) return;
  codes->reserve(cq.atoms.size());
  for (const TriplePattern& atom : cq.atoms) {
    codes->push_back(AtomShapeCode(atom));
  }
}

double CardinalityEstimator::Rows(const ConjunctiveQuery& cq,
                                  const std::vector<AtomStats>& stats,
                                  std::vector<uint64_t> codes) const {
  // Runtime feedback outranks the model: an observed cardinality for this
  // exact fragment (α-equivalence canonicalized) is strictly better
  // information than the independence assumptions below.
  if (feedback_ != nullptr) {
    std::sort(codes.begin(), codes.end());
    codes.erase(std::unique(codes.begin(), codes.end()), codes.end());
    if (std::optional<double> observed =
            feedback_->Lookup(cq, ShapeOfCodes(codes))) {
      return *observed;
    }
  }
  ConjunctionEstimate estimate;
  for (const AtomStats& atom : stats) estimate.Add(atom);
  return estimate.Value();
}

double CardinalityEstimator::PlanWork(
    const ConjunctiveQuery& cq, const std::vector<AtomStats>& stats,
    const std::vector<uint64_t>& codes) const {
  if (cq.atoms.empty()) return 0.0;
  const size_t n = cq.atoms.size();
  std::vector<double> cards(n);
  for (size_t i = 0; i < n; ++i) cards[i] = stats[i].card;
  // The engine's greedy order (engine/planner.h) — the plan the work
  // estimate must follow.
  const std::vector<size_t> order = GreedyAtomOrder(cq.atoms, cards);

  double work = cards[order[0]];
  double inter = cards[order[0]];
  ConjunctionEstimate estimate;
  estimate.Add(stats[order[0]]);
  // The prefix and its sorted distinct shape codes are only needed to ask
  // the feedback store about it.
  ConjunctiveQuery prefix;
  std::vector<uint64_t> prefix_codes;
  const auto extend_prefix = [&](size_t atom) {
    if (feedback_ == nullptr) return;
    prefix.atoms.push_back(cq.atoms[atom]);
    auto at = std::lower_bound(prefix_codes.begin(), prefix_codes.end(),
                               codes[atom]);
    if (at == prefix_codes.end() || *at != codes[atom]) {
      prefix_codes.insert(at, codes[atom]);
    }
  };
  extend_prefix(order[0]);
  for (size_t step = 1; step < n; ++step) {
    estimate.Add(stats[order[step]]);
    extend_prefix(order[step]);
    std::optional<double> observed;
    if (feedback_ != nullptr) {
      observed = feedback_->Lookup(prefix, ShapeOfCodes(prefix_codes));
    }
    const double out = observed.has_value() ? *observed : estimate.Value();
    // Probing: each intermediate row drives one index lookup; the rows
    // produced flow onward. Count both sides.
    work += inter + out;
    inter = out;
  }
  return work;
}

double CardinalityEstimator::EstimateCQ(const ConjunctiveQuery& cq,
                                        AtomStatistics* memo) const {
  std::vector<AtomStats> stats;
  std::vector<uint64_t> codes;
  CollectStats(cq, memo, &stats, &codes);
  return Rows(cq, stats, std::move(codes));
}

double CardinalityEstimator::EstimateUCQ(const UnionQuery& ucq,
                                         AtomStatistics* memo) const {
  double sum = 0.0;
  for (const ConjunctiveQuery& cq : ucq.disjuncts) {
    sum += EstimateCQ(cq, memo);
  }
  return sum;
}

double CardinalityEstimator::EstimateCqPlanWork(
    const ConjunctiveQuery& cq) const {
  std::vector<AtomStats> stats;
  std::vector<uint64_t> codes;
  CollectStats(cq, /*memo=*/nullptr, &stats, &codes);
  return PlanWork(cq, stats, codes);
}

CardinalityEstimator::DisjunctEstimate CardinalityEstimator::EstimateDisjunct(
    const ConjunctiveQuery& cq, AtomStatistics* memo) const {
  std::vector<AtomStats> stats;
  std::vector<uint64_t> codes;
  CollectStats(cq, memo, &stats, &codes);
  const double plan_work = PlanWork(cq, stats, codes);
  return {plan_work, Rows(cq, stats, std::move(codes))};
}

size_t AtomStatistics::KeyHash::operator()(const Key& k) const {
  uint64_t h = (uint64_t{k.s} << 32 | k.p) * 0x9E3779B97F4A7C15ull;
  h ^= (uint64_t{k.o} << 8 | k.var_positions) + 0x632BE59BD9B4E019ull +
       (h << 6) + (h >> 2);
  return static_cast<size_t>(h ^ (h >> 29));
}

AtomStats AtomStatistics::Get(const TriplePattern& atom) {
  const Key key{BoundOrAny(atom.s), BoundOrAny(atom.p), BoundOrAny(atom.o),
                static_cast<uint8_t>((atom.s.is_var() ? 1 : 0) |
                                     (atom.p.is_var() ? 2 : 0) |
                                     (atom.o.is_var() ? 4 : 0))};
  auto [it, inserted] = entries_.try_emplace(key);
  Entry& entry = it->second;
  if (inserted) entry.card = estimator_->EstimateAtom(atom);
  AtomStats stats;
  stats.card = entry.card;
  SortedVariables(atom, &stats);
  for (size_t i = 0; i < stats.num_vars; ++i) {
    const VarId v = stats.vars[i];
    const uint8_t positions = static_cast<uint8_t>(
        (atom.s.is_var() && atom.s.var() == v ? 1 : 0) |
        (atom.p.is_var() && atom.p.var() == v ? 2 : 0) |
        (atom.o.is_var() && atom.o.var() == v ? 4 : 0));
    const uint8_t bit = static_cast<uint8_t>(1u << positions);
    if ((entry.known & bit) == 0) {
      entry.distinct[positions] =
          estimator_->EstimateDistinct(atom, v, entry.card);
      entry.known |= bit;
    }
    stats.distinct[i] = entry.distinct[positions];
  }
  return stats;
}

double CardinalityEstimator::EstimateJoin(
    const std::vector<std::pair<double, std::vector<VarId>>>& inputs) const {
  double product = 1.0;
  std::unordered_map<VarId, std::pair<int, double>> vars;
  for (const auto& [rows, columns] : inputs) {
    product *= rows;
    for (VarId v : columns) {
      auto& [count, max_d] = vars[v];
      ++count;
      // Distinct values of v in this input are at most its row count.
      max_d = std::max(max_d, rows);
    }
  }
  if (product == 0.0) return 0.0;
  for (const auto& [v, info] : vars) {
    const auto& [count, max_d] = info;
    for (int i = 1; i < count; ++i) product /= std::max(1.0, max_d);
  }
  return product;
}

}  // namespace rdfopt
