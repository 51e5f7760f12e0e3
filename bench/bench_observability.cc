// Telemetry-overhead benchmark: the sidecar behind BENCH_observability.json.
//
// The always-on per-operator accounting (engine/plan.h actuals, written by
// every ExecutePlan) must cost <= 2% on plan execution versus a build with
// it compiled out (-DRDFOPT_DISABLE_NODE_TELEMETRY=ON). This binary times
// the same prebuilt ~2256-disjunct JUCQ execution as bench_micro's
// BM_ExecutePlannedJucq and records whether node telemetry was compiled in,
// so ci/bench_observability.sh can run it under both configurations and
// compute the overhead from the two records.
//
// It also prices the rest of the telemetry layer per call — windowed
// histogram observation, a non-qualifying slow-log check, feedback
// record+lookup, fragment canonicalization, and a full Prometheus
// rendering — the numbers that justify "always-on" for each path.

#include "bench_common.h"

#include <algorithm>
#include <vector>

#include "cost/feedback.h"
#include "engine/evaluator.h"
#include "engine/planner.h"
#include "reformulation/reformulator.h"
#include "service/canonical.h"
#include "service/slow_log.h"
#include "workload/query_sets.h"

namespace rdfopt::bench {
namespace {

double Percentile(std::vector<double>* sorted, double q) {
  if (sorted->empty()) return 0.0;
  size_t index = static_cast<size_t>(q * (sorted->size() - 1));
  return (*sorted)[index];
}

std::string CaseRecord(const std::string& name, size_t reps, double mean_ms,
                       double p50_ms, double p99_ms) {
  JsonWriter json;
  json.BeginObject();
  json.Key("bench").Value("observability");
  json.Key("case").Value(name);
#ifdef RDFOPT_DISABLE_NODE_TELEMETRY
  json.Key("node_telemetry").Value(false);
#else
  json.Key("node_telemetry").Value(true);
#endif
  json.Key("reps").Value(uint64_t{reps});
  json.Key("mean_ms").Value(mean_ms);
  json.Key("p50_ms").Value(p50_ms);
  json.Key("p99_ms").Value(p99_ms);
  json.Key("worker_threads").Value(uint64_t{BenchWorkerThreads()});
  json.EndObject();
  return json.TakeString();
}

/// Times `fn` `reps` times (after `warmup` unrecorded runs) and prints +
/// records one case row. Returns the mean ms.
template <typename Fn>
double TimeCase(const std::string& name, size_t warmup, size_t reps, Fn fn) {
  for (size_t i = 0; i < warmup; ++i) fn();
  std::vector<double> ms;
  ms.reserve(reps);
  for (size_t i = 0; i < reps; ++i) {
    Stopwatch sw;
    fn();
    ms.push_back(sw.ElapsedMillis());
  }
  std::sort(ms.begin(), ms.end());
  double sum = 0.0;
  for (double m : ms) sum += m;
  const double mean = sum / static_cast<double>(reps);
  const double p50 = Percentile(&ms, 0.50);
  const double p99 = Percentile(&ms, 0.99);
  std::printf("%-28s %8zu reps  mean %10.4f ms  p50 %10.4f ms  p99 %10.4f "
              "ms\n",
              name.c_str(), reps, mean, p50, p99);
  if (BenchJsonWriter::Active() != nullptr) {
    BenchJsonWriter::Active()->Record(CaseRecord(name, reps, mean, p50, p99));
  }
  return mean;
}

int Main(int argc, char** argv) {
  InitBenchThreads(&argc, argv);
  InitBenchJson(argc, argv);

  const size_t target = EnvSize("RDFOPT_LUBM_TRIPLES", 200'000);
  Graph graph;
  LubmOptions lubm = LubmOptionsForTripleTarget(target);
  std::printf("# generating LUBM-style data: target %zu triples "
              "(%zu universities)...\n",
              target, lubm.num_universities);
  GenerateLubm(lubm, &graph);
  graph.FinalizeSchema();
  TripleStore store = TripleStore::Build(graph.data_triples());
  Statistics stats = Statistics::Compute(store);
  EngineProfile profile = WithBenchThreads(PostgresLikeProfile());

#ifdef RDFOPT_DISABLE_NODE_TELEMETRY
  std::printf("# node telemetry: COMPILED OUT "
              "(-DRDFOPT_DISABLE_NODE_TELEMETRY)\n");
#else
  std::printf("# node telemetry: on (default build)\n");
#endif

  // The reformulated motivating Q1, planned once — the same workload as
  // bench_micro's BM_ExecutePlannedJucq.
  Query q1 = ParseOrDie(LubmMotivatingQ1().text, &graph.dict());
  Reformulator reformulator(&graph.schema(), &graph.vocab());
  VarTable vars = q1.vars;
  Result<UnionQuery> ucq = reformulator.ReformulateCQ(q1.cq, &vars);
  if (!ucq.ok()) {
    std::fprintf(stderr, "reformulation failed: %s\n",
                 ucq.status().ToString().c_str());
    return 1;
  }
  JoinOfUnions jucq;
  jucq.head = ucq.ValueOrDie().head;
  jucq.components.push_back(ucq.TakeValue());

  Evaluator evaluator(&store, &profile);
  PhysicalPlan plan = evaluator.planner().PlanJUCQ(jucq);
  std::printf("# plan: %d nodes, %zu union terms\n", plan.num_nodes,
              plan.union_terms);

  const size_t reps = EnvSize("RDFOPT_OBS_REPS", 30);
  TimeCase("execute_planned_jucq", /*warmup=*/3, reps, [&] {
    Result<Relation> r = evaluator.ExecutePlan(&plan, nullptr);
    if (!r.ok()) std::abort();
  });

  // Per-call costs of the telemetry layer itself, amortized over a batch
  // per rep so the stopwatch granularity doesn't dominate.
  constexpr size_t kBatch = 10'000;

  MetricWindowedHistogram windowed;
  TimeCase("windowed_observe_10k", /*warmup=*/1, reps, [&] {
    for (size_t i = 0; i < kBatch; ++i) {
      windowed.Observe(static_cast<double>(i % 97));
    }
  });

  SlowQueryLog::Options slow_options;
  slow_options.threshold_ms = 1e9;  // Nothing qualifies: the per-request
                                    // cost every fast query pays.
  SlowQueryLog slow_log(slow_options);
  SlowQueryLog::Record fast;
  fast.total_ms = 0.1;
  TimeCase("slowlog_nonqualifying_10k", /*warmup=*/1, reps, [&] {
    for (size_t i = 0; i < kBatch; ++i) slow_log.MaybeRecord(fast);
  });

  EstimateFeedbackStore feedback;
  ConjunctiveQuery fragment = q1.cq;
  TimeCase("feedback_record_lookup_1k", /*warmup=*/1, reps, [&] {
    for (size_t i = 0; i < 1'000; ++i) {
      feedback.Record(fragment, 10.0, 100 + i % 7);
      if (!feedback.Lookup(fragment).has_value()) std::abort();
    }
  });

  TimeCase("fragment_key_1k", /*warmup=*/1, reps, [&] {
    for (size_t i = 0; i < 1'000; ++i) {
      std::string key = FragmentKey(fragment);
      if (key.empty()) std::abort();
    }
  });

  // A populated registry rendered to the Prometheus exposition: the cost of
  // one scrape.
  MetricsRegistry::Global().GetWindowedHistogram("service.total_ms")
      ->Observe(1.0);
  TimeCase("prometheus_render", /*warmup=*/1, reps, [&] {
    std::string text = MetricsRegistry::Global().ToPrometheusText();
    if (text.empty()) std::abort();
  });

  return 0;
}

}  // namespace
}  // namespace rdfopt::bench

int main(int argc, char** argv) { return rdfopt::bench::Main(argc, argv); }
