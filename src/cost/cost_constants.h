#ifndef RDFOPT_COST_COST_CONSTANTS_H_
#define RDFOPT_COST_COST_CONSTANTS_H_

namespace rdfopt {

/// The system-dependent constants of the paper's cost model (§4.1),
/// "determined by running a set of simple calibration queries" per engine.
/// Units are abstract cost units; with the defaults below one unit is
/// roughly one microsecond on the reference engine profile.
struct CostConstants {
  /// Fixed overhead of issuing a query to the engine (c_db).
  double c_db = 50.0;
  /// Per-tuple scan cost (c_t): retrieving one tuple from an index.
  double c_t = 0.02;
  /// Per-input-tuple join cost (c_j): hash/merge joins are linear in the
  /// total size of their inputs.
  double c_j = 0.03;
  /// Per-tuple materialization cost (c_m) for stored intermediates.
  double c_m = 0.05;
  /// Per-tuple duplicate-elimination cost, in-memory hashing regime (c_l).
  double c_l = 0.04;
  /// Per-tuple-log-tuple duplicate-elimination cost, external-sort regime
  /// (c_k).
  double c_k = 0.01;
  /// Result size (tuples) beyond which duplicate elimination is costed in
  /// the external-sort regime.
  double dedup_spill_rows = 4e6;
  /// Fixed overhead of each UNION branch (plan-node setup); this is what
  /// makes huge UCQs expensive even when each branch is empty.
  double c_union_term = 2.0;
  /// Per-tuple cost of a hierarchy interval scan (c_r): reading one tuple
  /// from the hid-ordered shadow index (DESIGN.md §12). Equal to c_t in
  /// every profile and after calibration — both are sequential index
  /// reads — but charged once per range instead of once per collapsed
  /// branch, which is where the win comes from.
  double c_r = 0.02;
};

}  // namespace rdfopt

#endif  // RDFOPT_COST_COST_CONSTANTS_H_
