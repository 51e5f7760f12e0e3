#include "cost/calibration.h"

#include <gtest/gtest.h>

namespace rdfopt {
namespace {

TEST(FitTest, SlopeAndInterceptOfPerfectLine) {
  std::vector<std::pair<double, double>> samples = {
      {1.0, 12.0}, {2.0, 14.0}, {3.0, 16.0}, {4.0, 18.0}};
  EXPECT_NEAR(FitSlope(samples), 2.0, 1e-9);
  EXPECT_NEAR(FitIntercept(samples), 10.0, 1e-9);
}

TEST(FitTest, DegenerateInputs) {
  EXPECT_DOUBLE_EQ(FitSlope({}), 0.0);
  EXPECT_DOUBLE_EQ(FitSlope({{1.0, 5.0}}), 0.0);
  // All x equal: slope undefined, returns 0.
  EXPECT_DOUBLE_EQ(FitSlope({{2.0, 1.0}, {2.0, 9.0}}), 0.0);
  EXPECT_DOUBLE_EQ(FitIntercept({}), 0.0);
}

// The calibration run is timing-dependent; assert structure, not values:
// every fitted constant must be finite and non-negative, and the per-tuple
// constants must be "small" (well under a millisecond per tuple).
TEST(CalibrationTest, FitsSaneConstants) {
  CalibrationReport report = CalibrateProfile(PostgresLikeProfile(),
                                              /*repetitions=*/1);
  const CostConstants& k = report.fitted;
  for (double v : {k.c_db, k.c_t, k.c_j, k.c_m, k.c_l, k.c_k,
                   k.c_union_term}) {
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1e6);
  }
  EXPECT_LT(k.c_t, 1000.0);  // Microseconds per tuple, must be << 1ms.
  // No sweep times a range scan: c_r follows c_t so the two stay in the
  // same units (the range collapse is priced against member scans).
  EXPECT_EQ(k.c_r, k.c_t);
  EXPECT_FALSE(report.scan_samples.empty());
  EXPECT_FALSE(report.join_samples.empty());
  EXPECT_FALSE(report.union_term_samples.empty());
  EXPECT_FALSE(report.mat_samples.empty());
  // Scans must take measurably longer as they grow.
  EXPECT_GT(report.scan_samples.back().second,
            report.scan_samples.front().second * 0.5);
}

// The DB2-like profile physically spins per union term, so its fitted
// per-term constant must exceed the native store's.
TEST(CalibrationTest, UnionTermOverheadReflectsProfile) {
  CalibrationReport heavy = CalibrateProfile(Db2LikeProfile(),
                                             /*repetitions=*/1);
  CalibrationReport light = CalibrateProfile(NativeStoreProfile(),
                                             /*repetitions=*/1);
  EXPECT_GT(heavy.fitted.c_union_term, light.fitted.c_union_term);
}

}  // namespace
}  // namespace rdfopt
