// Cover fingerprints: one line per (query, strategy) over the evaluation
// query sets and a seeded list of deep-cold template instances, pinning the
// cover GCov/ECov choose, the bits of its estimated cost and the number of
// covers examined. Any change to cover pricing — atom statistics, plan-work
// prefixes, the per-variable division order of the System-R estimate,
// estimate feedback — shows up as a diff against
// tests/golden/cover_fingerprints.txt.
//
// To regenerate after an intentional change:
//   RDFOPT_UPDATE_GOLDENS=1 ./rdfopt_tests --gtest_filter='CoverFingerprint*'

#include <algorithm>
#include <cstdio>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "cost/feedback.h"
#include "golden.h"
#include "hierarchy_workloads.h"
#include "optimizer/answering.h"
#include "optimizer/ecov.h"
#include "optimizer/gcov.h"
#include "sparql/parser.h"
#include "storage/statistics.h"
#include "workload/lubm.h"
#include "workload/query_sets.h"

namespace rdfopt {
namespace {

/// ECov enumerates every cover; above this many atoms it could hit its
/// time budget, which would make the line timing-dependent.
constexpr size_t kMaxEcovAtoms = 6;

/// The serving benchmark's engine: Postgres-like costs, emulation zeroed.
EngineProfile ServingProfile(bool hierarchy_ranges) {
  EngineProfile p = PostgresLikeProfile();
  p.tuple_us_per_row = 0.0;
  p.materialization_us_per_row = 0.0;
  p.union_term_overhead_us = 0.0;
  p.hierarchy_ranges = hierarchy_ranges;
  return p;
}

std::string SearchLine(const std::string& label, const CoverSearchResult& r) {
  char buf[128];
  std::snprintf(buf, sizeof buf, " cost=%a examined=%zu%s\n", r.best_cost,
                r.covers_examined, r.timed_out ? " timed_out" : "");
  return label + " cover=" + r.best_cover.Key() + buf;
}

/// The fingerprint line of one cover search for `q` on `answerer`.
std::string SearchCover(const QueryAnswerer& answerer, const Query& q,
                        Strategy strategy, const std::string& label) {
  AnswerOptions options;
  options.strategy = strategy;
  CachingCoverCostOracle oracle(q.cq, q.vars, &answerer.reformulator(),
                                &answerer.estimator(), &answerer.evaluator(),
                                options);
  const CoverSearchResult r =
      strategy == Strategy::kGcov
          ? GreedyCoverSearch(q.cq, &oracle, options.optimizer_time_budget_s)
          : ExhaustiveCoverSearch(q.cq, &oracle,
                                  options.optimizer_time_budget_s);
  return SearchLine(label, r);
}

/// Appends the GCov (and, for small queries, ECov) line of every query.
void AppendCoverLines(const QueryAnswerer& answerer, Dictionary* dict,
                      const std::string& prefix,
                      const std::vector<BenchmarkQuery>& set,
                      std::string* out) {
  for (const BenchmarkQuery& bq : set) {
    Result<Query> parsed = ParseQuery(bq.text, dict);
    ASSERT_TRUE(parsed.ok()) << bq.name << ": " << parsed.status().ToString();
    const Query q = parsed.TakeValue();
    std::vector<Strategy> strategies = {Strategy::kGcov};
    if (q.cq.atoms.size() <= kMaxEcovAtoms) {
      strategies.push_back(Strategy::kEcov);
    }
    for (Strategy strategy : strategies) {
      *out += SearchCover(answerer, q, strategy,
                          prefix + "/" + bq.name + " " +
                              std::string(StrategyName(strategy)));
    }
  }
}

/// The serving benchmark's deep-cold templates (LUBM Q07/Q12/Q28 with type
/// variables, Q10/Q20/Q25/Q27 with class constants), instantiated from a
/// fixed seed over constants of `w`'s data.
std::vector<BenchmarkQuery> DeepColdInstances(const Graph& graph,
                                              size_t per_template) {
  const Dictionary& dict = graph.dict();
  const std::string ns = kLubmNs;
  const ValueId type = graph.vocab().rdf_type;
  const ValueId department = dict.LookupIri(ns + "Department");
  const ValueId doctoral = dict.LookupIri(ns + "doctoralDegreeFrom");
  std::set<std::string> dept_set, prof_set;
  for (const Triple& t : graph.data_triples()) {
    if (t.p == type && t.o == department) {
      dept_set.insert(dict.term(t.s).Encoded());
    }
    if (t.p == doctoral) prof_set.insert(dict.term(t.s).Encoded());
  }
  const std::vector<std::string> depts(dept_set.begin(), dept_set.end());
  const std::vector<std::string> profs(prof_set.begin(), prof_set.end());
  EXPECT_FALSE(depts.empty());
  EXPECT_FALSE(profs.empty());
  if (depts.empty() || profs.empty()) return {};

  WorkloadRng rng(0xC01Dull);
  const char* kFaculty[] = {"Faculty", "Professor", "FullProfessor",
                            "AssociateProfessor", "AssistantProfessor",
                            "Employee", "Person", "Chair", "Lecturer"};
  const char* kStudents[] = {"Student", "GraduateStudent", "Person",
                             "TeachingAssistant", "ResearchAssistant"};
  const auto univ = [&] {
    return "<" + std::string(kLubmData) + "univ" +
           std::to_string(rng.Uniform(3)) + ">";
  };
  const auto dept = [&] { return depts[rng.Uniform(depts.size())]; };
  const auto prof = [&] { return profs[rng.Uniform(profs.size())]; };
  const auto faculty = [&] {
    return "ub:" + std::string(kFaculty[rng.Uniform(std::size(kFaculty))]);
  };
  const auto student = [&] {
    return "ub:" + std::string(kStudents[rng.Uniform(std::size(kStudents))]);
  };
  const std::string prefix = "PREFIX ub: <" + ns + "> ";
  std::vector<BenchmarkQuery> out;
  // Every constant is drawn into a named local first: the operands of one
  // string concatenation are evaluated in an unspecified order.
  for (size_t i = 0; i < per_template; ++i) {
    const std::string n = std::to_string(i);
    const std::string u0 = univ(), d0 = dept();
    out.push_back({"Q07#" + n, prefix +
                                   "SELECT ?x ?y WHERE { ?x rdf:type ?y . "
                                   "?x ub:degreeFrom " + u0 +
                                   " . ?x ub:memberOf " + d0 + " . }"});
    const std::string u1 = univ(), u2 = univ();
    out.push_back({"Q12#" + n, prefix +
                                   "SELECT ?x ?y ?z WHERE { ?x rdf:type ?y . "
                                   "?x ub:worksFor ?z . "
                                   "?z ub:subOrganizationOf " + u1 +
                                   " . ?x ub:degreeFrom " + u2 + " . }"});
    const std::string p0 = prof(), u3 = univ();
    out.push_back({"Q28#" + n, prefix +
                                   "SELECT ?x ?u ?y ?v WHERE { "
                                   "?x rdf:type ?u . ?y rdf:type ?v . "
                                   "?x ub:memberOf ?z . ?y ub:memberOf ?z . "
                                   "?x ub:advisor " + p0 +
                                   " . ?y ub:doctoralDegreeFrom " + u3 +
                                   " . }"});
    const std::string d1 = dept(), f0 = faculty();
    out.push_back({"Q10#" + n, prefix + "SELECT ?x WHERE { ?x ub:worksFor " +
                                   d1 + " . ?x rdf:type " + f0 + " . }"});
    const std::string f1 = faculty(), u4 = univ(), d2 = dept();
    out.push_back({"Q20#" + n, prefix + "SELECT ?x ?s WHERE { ?x rdf:type " +
                                   f1 + " . ?x ub:degreeFrom " + u4 +
                                   " . ?s ub:advisor ?x . ?x ub:worksFor " +
                                   d2 + " . }"});
    const std::string s0 = student(), u5 = univ(), p1 = prof();
    out.push_back({"Q25#" + n, prefix + "SELECT ?x ?z WHERE { ?x rdf:type " +
                                   s0 + " . ?x ub:memberOf ?z . "
                                   "?z ub:subOrganizationOf " + u5 +
                                   " . ?x ub:advisor " + p1 + " . }"});
    const std::string u6 = univ(), u7 = univ(), p2 = prof();
    out.push_back({"Q27#" + n, prefix +
                                   "SELECT ?x ?y ?z WHERE { ?x ub:memberOf ?z "
                                   ". ?y ub:memberOf ?z . "
                                   "?x ub:doctoralDegreeFrom " + u6 +
                                   " . ?y ub:mastersDegreeFrom " + u7 +
                                   " . ?y ub:advisor " + p2 + " . }"});
  }
  return out;
}

/// Answers `set` serially with GCov on `answerer`, so a feedback store
/// enabled on it holds the executed disjuncts' observations.
void Execute(const QueryAnswerer& answerer, Dictionary* dict,
             const std::vector<BenchmarkQuery>& set) {
  for (const BenchmarkQuery& bq : set) {
    Result<Query> parsed = ParseQuery(bq.text, dict);
    ASSERT_TRUE(parsed.ok()) << bq.name;
    AnswerOptions options;
    Result<AnswerOutcome> r = answerer.Answer(parsed.ValueOrDie(), options);
    ASSERT_TRUE(r.ok()) << bq.name << ": " << r.status().ToString();
  }
}

TEST(CoverFingerprintTest, CoversMatchGolden) {
  std::string out;
  struct Set {
    const char* name;
    testing::HierarchyWorkload* workload;
    std::vector<BenchmarkQuery> queries;
    bool ranges;
  };
  testing::HierarchyWorkload& lubm48 = testing::LubmFineGrainedWorkload();
  const std::vector<BenchmarkQuery> cold =
      DeepColdInstances(lubm48.graph, /*per_template=*/3);
  const std::vector<Set> sets = {
      {"lubm", &testing::LubmWorkload(), LubmQuerySet(), false},
      {"lubm48", &lubm48, LubmQuerySet(), false},
      {"lubm48-ranges", &lubm48, LubmQuerySet(), true},
      {"dblp", &testing::DblpWorkload(), DblpQuerySet(), false},
      {"deep-cold", &lubm48, cold, false},
  };
  for (const Set& set : sets) {
    testing::HierarchyWorkload& w = *set.workload;
    const Statistics stats = Statistics::Compute(w.store);
    const EngineProfile profile = ServingProfile(set.ranges);
    const QueryAnswerer answerer(&w.store, nullptr, &w.graph.schema(),
                                 &w.graph.vocab(), &stats, &profile);
    AppendCoverLines(answerer, &w.graph.dict(), set.name, set.queries, &out);
  }

  // With estimate feedback: the same pricing after every query of the set
  // has run once and recorded its disjuncts' actuals.
  for (const Set& set : {sets[0], sets[4]}) {
    testing::HierarchyWorkload& w = *set.workload;
    const Statistics stats = Statistics::Compute(w.store);
    const EngineProfile profile = ServingProfile(set.ranges);
    QueryAnswerer answerer(&w.store, nullptr, &w.graph.schema(),
                           &w.graph.vocab(), &stats, &profile);
    EstimateFeedbackStore feedback;
    answerer.EnableFeedback(&feedback);
    Execute(answerer, &w.graph.dict(), set.queries);
    ASSERT_GT(feedback.size(), 0u);
    AppendCoverLines(answerer, &w.graph.dict(),
                     std::string(set.name) + "+feedback", set.queries, &out);
  }

  testing::CheckGolden("cover_fingerprints.txt", out);
}

// Four threads plan the heavy deep-cold templates (type variables: the
// largest reformulations) on one answerer whose estimator reads one shared
// feedback store, and choose exactly the covers, at exactly the costs,
// that serial planning chooses. Each planning owns its atom statistics;
// planning only reads the store.
TEST(CoverFingerprintTest, ConcurrentPlanningMatchesSerial) {
  testing::HierarchyWorkload& w = testing::LubmFineGrainedWorkload();
  const Statistics stats = Statistics::Compute(w.store);
  const EngineProfile profile = ServingProfile(/*hierarchy_ranges=*/false);
  QueryAnswerer answerer(&w.store, nullptr, &w.graph.schema(),
                         &w.graph.vocab(), &stats, &profile);
  EstimateFeedbackStore feedback;
  answerer.EnableFeedback(&feedback);
  const std::vector<BenchmarkQuery> cold =
      DeepColdInstances(w.graph, /*per_template=*/2);
  Execute(answerer, &w.graph.dict(), cold);
  ASSERT_GT(feedback.size(), 0u);

  std::vector<Query> heavy;
  for (const BenchmarkQuery& bq : cold) {
    if (bq.name.rfind("Q07", 0) != 0 && bq.name.rfind("Q12", 0) != 0 &&
        bq.name.rfind("Q28", 0) != 0) {
      continue;
    }
    Result<Query> parsed = ParseQuery(bq.text, &w.graph.dict());
    ASSERT_TRUE(parsed.ok()) << bq.name;
    heavy.push_back(parsed.TakeValue());
  }
  ASSERT_EQ(heavy.size(), 6u);

  const MetricCounter* key_builds =
      MetricsRegistry::Global().GetCounter("cost.feedback_key_builds");
  const uint64_t builds_before = key_builds->value();
  std::vector<std::string> serial;
  for (const Query& q : heavy) {
    serial.push_back(SearchCover(answerer, q, Strategy::kGcov, "gcov"));
  }
  // Not vacuous: planning consulted the populated store.
  EXPECT_GT(key_builds->value(), builds_before);

  constexpr size_t kThreads = 4;
  std::vector<std::vector<std::string>> concurrent(
      kThreads, std::vector<std::string>(heavy.size()));
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Each thread starts at a different query, so different plannings
      // overlap.
      for (size_t i = 0; i < heavy.size(); ++i) {
        const size_t qi = (i + t) % heavy.size();
        concurrent[t][qi] =
            SearchCover(answerer, heavy[qi], Strategy::kGcov, "gcov");
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(concurrent[t], serial) << "thread " << t;
  }
}

}  // namespace
}  // namespace rdfopt
