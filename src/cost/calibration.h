#ifndef RDFOPT_COST_CALIBRATION_H_
#define RDFOPT_COST_CALIBRATION_H_

#include <vector>

#include "cost/cost_constants.h"
#include "engine/engine_profile.h"

namespace rdfopt {

/// Calibration harness: fits the cost-model constants of a profile by
/// running "a set of simple calibration queries on the RDBMS being used"
/// (paper §4.1) — here, on the embedded engine under that profile.
///
/// A synthetic calibration database (chains of triples over a handful of
/// properties, sizes swept over an order of magnitude) isolates each
/// constant:
///   * c_t  — single-atom scans of increasing size;
///   * c_j  — two-atom joins with fixed output and growing inputs;
///   * c_l  — unions with duplicated disjuncts (pure dedup work);
///   * c_m  — two-component JUCQs with growing materialized side;
///   * c_union_term — UCQs of growing numbers of empty disjuncts;
///   * c_db — intercept of the scan sweep.
/// Each is fitted by least-squares slope over the sweep. No sweep times a
/// hierarchy range scan: c_r is set to the fitted c_t.
struct CalibrationReport {
  CostConstants fitted;
  /// (x, measured_microseconds) samples per sweep, for inspection/tests.
  std::vector<std::pair<double, double>> scan_samples;
  std::vector<std::pair<double, double>> join_samples;
  std::vector<std::pair<double, double>> dedup_samples;
  std::vector<std::pair<double, double>> mat_samples;
  std::vector<std::pair<double, double>> union_term_samples;
};

/// Runs the calibration sweeps under `profile` and returns fitted constants
/// (dedup_spill_rows is kept from the profile's current constants).
/// Deterministic workload; timing noise is averaged over `repetitions`.
CalibrationReport CalibrateProfile(const EngineProfile& profile,
                                   int repetitions = 3);

/// Least-squares slope of y over x through the best intercept; exposed for
/// tests. Returns 0 for fewer than two samples.
double FitSlope(const std::vector<std::pair<double, double>>& samples);
/// The matching intercept.
double FitIntercept(const std::vector<std::pair<double, double>>& samples);

}  // namespace rdfopt

#endif  // RDFOPT_COST_CALIBRATION_H_
