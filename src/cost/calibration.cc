#include "cost/calibration.h"

#include <algorithm>
#include <string>

#include "common/stopwatch.h"
#include "engine/evaluator.h"
#include "rdf/dictionary.h"
#include "storage/triple_store.h"

namespace rdfopt {

namespace {

/// Synthetic calibration database: per sweep size, a dedicated property with
/// exactly that many distinct (s, o) pairs, plus a 1-1 "chain" continuation
/// for join sweeps.
struct CalibrationDb {
  Dictionary dict;
  TripleStore store;
  std::vector<ValueId> scan_props;   // scan_props[i] has sizes[i] triples.
  std::vector<ValueId> chain_props;  // chain_props[i]: o of scan -> new node.
  ValueId empty_prop = kInvalidValueId;
  std::vector<size_t> sizes;
};

CalibrationDb BuildCalibrationDb() {
  CalibrationDb db;
  db.sizes = {20000, 40000, 80000, 160000};
  std::vector<Triple> triples;
  for (size_t i = 0; i < db.sizes.size(); ++i) {
    std::string suffix = std::to_string(i);
    ValueId scan_p = db.dict.InternIri("cal:scan" + suffix);
    ValueId chain_p = db.dict.InternIri("cal:chain" + suffix);
    db.scan_props.push_back(scan_p);
    db.chain_props.push_back(chain_p);
    for (size_t row = 0; row < db.sizes[i]; ++row) {
      ValueId s = db.dict.InternIri("cal:s" + suffix + "_" +
                                    std::to_string(row));
      ValueId o = db.dict.InternIri("cal:o" + suffix + "_" +
                                    std::to_string(row));
      ValueId t = db.dict.InternIri("cal:t" + suffix + "_" +
                                    std::to_string(row));
      triples.push_back(Triple{s, scan_p, o});
      triples.push_back(Triple{o, chain_p, t});
    }
  }
  db.empty_prop = db.dict.InternIri("cal:empty");
  db.store = TripleStore::Build(std::move(triples));
  return db;
}

// One-atom CQ  q(x, y) :- x <p> y.
ConjunctiveQuery ScanQuery(ValueId p) {
  ConjunctiveQuery cq;
  cq.head = {0, 1};
  cq.atoms.push_back(TriplePattern{PatternTerm::Var(0),
                                   PatternTerm::Const(p),
                                   PatternTerm::Var(1)});
  return cq;
}

// Two-atom chain CQ  q(x, z) :- x <p> y . y <q> z.
ConjunctiveQuery ChainQuery(ValueId p, ValueId q) {
  ConjunctiveQuery cq;
  cq.head = {0, 2};
  cq.atoms.push_back(TriplePattern{PatternTerm::Var(0),
                                   PatternTerm::Const(p),
                                   PatternTerm::Var(1)});
  cq.atoms.push_back(TriplePattern{PatternTerm::Var(1),
                                   PatternTerm::Const(q),
                                   PatternTerm::Var(2)});
  return cq;
}

double MedianMicros(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

template <typename Fn>
double TimeMicros(int repetitions, Fn&& fn) {
  std::vector<double> times;
  times.reserve(static_cast<size_t>(repetitions));
  for (int r = 0; r < repetitions; ++r) {
    Stopwatch sw;
    fn();
    times.push_back(static_cast<double>(sw.ElapsedMicros()));
  }
  return MedianMicros(std::move(times));
}

}  // namespace

double FitSlope(const std::vector<std::pair<double, double>>& samples) {
  if (samples.size() < 2) return 0.0;
  double n = static_cast<double>(samples.size());
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  for (const auto& [x, y] : samples) {
    sx += x;
    sy += y;
    sxx += x * x;
    sxy += x * y;
  }
  double denom = n * sxx - sx * sx;
  if (denom == 0.0) return 0.0;
  return (n * sxy - sx * sy) / denom;
}

double FitIntercept(const std::vector<std::pair<double, double>>& samples) {
  if (samples.empty()) return 0.0;
  double n = static_cast<double>(samples.size());
  double sx = 0, sy = 0;
  for (const auto& [x, y] : samples) {
    sx += x;
    sy += y;
  }
  return sy / n - FitSlope(samples) * sx / n;
}

CalibrationReport CalibrateProfile(const EngineProfile& profile,
                                   int repetitions) {
  CalibrationDb db = BuildCalibrationDb();
  Evaluator evaluator(&db.store, &profile);
  CalibrationReport report;
  report.fitted = profile.cost;  // Keep non-fitted fields (spill threshold).

  // 1. Scan sweep: time ~ c_db + (c_t + c_l) * n. The engine always
  //    deduplicates results, so the slope conflates scan and dedup work;
  //    split evenly (the model only ever applies them to the same row sets).
  for (size_t i = 0; i < db.sizes.size(); ++i) {
    ConjunctiveQuery cq = ScanQuery(db.scan_props[i]);
    double us = TimeMicros(repetitions, [&] {
      Result<Relation> r = evaluator.EvaluateCQ(cq, nullptr);
      (void)r;
    });
    report.scan_samples.emplace_back(static_cast<double>(db.sizes[i]), us);
  }
  double scan_slope = std::max(0.0, FitSlope(report.scan_samples));
  report.fitted.c_db = std::max(0.0, FitIntercept(report.scan_samples));
  report.fitted.c_t = scan_slope / 2.0;
  report.fitted.c_l = scan_slope / 2.0;
  // No sweep times a range scan; the shadow index reads one tuple per row
  // like any index scan, so c_r takes the fitted c_t (the convention every
  // profile follows) rather than keeping the profile's unfitted value.
  report.fitted.c_r = report.fitted.c_t;

  // 2. Join sweep: chain query over the same sizes; extra time over the two
  //    scans, divided by the join input rows (2n), gives c_j.
  for (size_t i = 0; i < db.sizes.size(); ++i) {
    ConjunctiveQuery cq = ChainQuery(db.scan_props[i], db.chain_props[i]);
    double us = TimeMicros(repetitions, [&] {
      Result<Relation> r = evaluator.EvaluateCQ(cq, nullptr);
      (void)r;
    });
    double n = static_cast<double>(db.sizes[i]);
    double scans = scan_slope * 2.0 * n;
    report.join_samples.emplace_back(2.0 * n, std::max(0.0, us - scans));
  }
  report.fitted.c_j = std::max(0.0, FitSlope(report.join_samples));

  // 3. Union-term sweep: k empty disjuncts; slope is the per-term overhead.
  for (size_t k : {500, 1000, 2000, 4000}) {
    UnionQuery ucq;
    ucq.head = {0, 1};
    ConjunctiveQuery empty_cq = ScanQuery(db.empty_prop);
    for (size_t j = 0; j < k; ++j) ucq.disjuncts.push_back(empty_cq);
    double us = TimeMicros(repetitions, [&] {
      Result<Relation> r = evaluator.EvaluateUCQ(ucq, nullptr);
      (void)r;
    });
    report.union_term_samples.emplace_back(static_cast<double>(k), us);
  }
  report.fitted.c_union_term =
      std::max(0.0, FitSlope(report.union_term_samples));

  // 4. Materialization sweep: two-component JUCQ joining scan i (smaller,
  //    materialized) with the largest scan (pipelined). The slope over the
  //    materialized rows, minus already-fitted per-row work, gives c_m.
  const size_t pipelined = db.sizes.size() - 1;
  for (size_t i = 0; i + 1 < db.sizes.size(); ++i) {
    JoinOfUnions jucq;
    jucq.head = {0, 1, 2};
    UnionQuery small;
    small.head = {0, 1};
    small.disjuncts.push_back(ScanQuery(db.scan_props[i]));
    // Join on variable 1: the chain property continues the pipelined side.
    UnionQuery large;
    large.head = {1, 2};
    ConjunctiveQuery big;
    big.head = {1, 2};
    big.atoms.push_back(TriplePattern{PatternTerm::Var(1),
                                      PatternTerm::Const(
                                          db.chain_props[pipelined]),
                                      PatternTerm::Var(2)});
    large.disjuncts.push_back(big);
    jucq.components.push_back(std::move(small));
    jucq.components.push_back(std::move(large));
    double us = TimeMicros(repetitions, [&] {
      Result<Relation> r = evaluator.EvaluateJUCQ(jucq, nullptr);
      (void)r;
    });
    report.mat_samples.emplace_back(static_cast<double>(db.sizes[i]), us);
  }
  double mat_slope = std::max(0.0, FitSlope(report.mat_samples));
  // Per materialized row the query also scans, dedups and joins it.
  double overhead =
      report.fitted.c_t + report.fitted.c_l + report.fitted.c_j;
  report.fitted.c_m = std::max(0.0, mat_slope - overhead);

  // c_k (spill regime) keeps its proportional relation to c_l.
  report.fitted.c_k = report.fitted.c_l / 4.0;
  return report;
}

}  // namespace rdfopt
