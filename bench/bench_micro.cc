// Operator- and component-level microbenchmarks (google-benchmark): the
// building blocks whose costs the §4.1 model abstracts — index scans, hash
// joins, duplicate elimination, reformulation, cover enumeration and the
// saturation fixpoint.

#include <benchmark/benchmark.h>

#include <memory>
#include <unordered_map>

#include "bench_common.h"
#include "common/trace.h"
#include "rdf/hierarchy_encoding.h"
#include "engine/evaluator.h"
#include "engine/operators.h"
#include "engine/planner.h"
#include "engine/view_resolver.h"
#include "optimizer/ecov.h"
#include "reasoner/saturation.h"
#include "reformulation/reformulator.h"
#include "sparql/parser.h"
#include "workload/lubm.h"
#include "workload/query_sets.h"

namespace rdfopt {
namespace {

// Shared fixture data (built once).
struct MicroEnv {
  Graph graph;
  TripleStore store;
  ValueId takes_course;
  ValueId member_of;
  ValueId rdf_type;

  MicroEnv() {
    LubmOptions options;
    options.num_universities = 2;
    GenerateLubm(options, &graph);
    graph.FinalizeSchema();
    store = TripleStore::Build(graph.data_triples());
    takes_course = graph.dict().LookupIri(
        "http://lubm.example.org/univ#takesCourse");
    member_of =
        graph.dict().LookupIri("http://lubm.example.org/univ#memberOf");
    rdf_type = graph.vocab().rdf_type;
  }
};

MicroEnv& Env() {
  static MicroEnv& env = *new MicroEnv();
  return env;
}

void BM_IndexScan(benchmark::State& state) {
  MicroEnv& env = Env();
  TriplePattern atom{PatternTerm::Var(0),
                     PatternTerm::Const(env.takes_course),
                     PatternTerm::Var(1)};
  for (auto _ : state) {
    Relation r = ScanAtom(env.store, atom);
    benchmark::DoNotOptimize(r.num_rows());
  }
  state.SetItemsProcessed(
      static_cast<int64_t>(state.iterations()) *
      static_cast<int64_t>(ScanAtomInputSize(env.store, atom)));
}
BENCHMARK(BM_IndexScan);

void BM_CountMatches(benchmark::State& state) {
  MicroEnv& env = Env();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        env.store.CountMatches(kAnyValue, env.takes_course, kAnyValue));
  }
}
BENCHMARK(BM_CountMatches);

void BM_HashJoin(benchmark::State& state) {
  MicroEnv& env = Env();
  Relation left = ScanAtom(env.store,
                           TriplePattern{PatternTerm::Var(0),
                                         PatternTerm::Const(env.takes_course),
                                         PatternTerm::Var(1)});
  Relation right = ScanAtom(env.store,
                            TriplePattern{PatternTerm::Var(0),
                                          PatternTerm::Const(env.member_of),
                                          PatternTerm::Var(2)});
  for (auto _ : state) {
    Relation joined = HashJoin(left, right);
    benchmark::DoNotOptimize(joined.num_rows());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(left.num_rows() +
                                               right.num_rows()));
}
BENCHMARK(BM_HashJoin);

// Duplicate elimination (radix-partitioned stable hash dedup,
// Relation::Deduplicate) over a doubled rdf:type scan (~2x duplication).
Relation DoubledTypeScan(MicroEnv& env) {
  Relation base = ScanAtom(env.store,
                           TriplePattern{PatternTerm::Var(0),
                                         PatternTerm::Const(env.rdf_type),
                                         PatternTerm::Var(1)});
  Relation copy({0, 1});
  for (size_t i = 0; i < base.num_rows(); ++i) copy.AppendRow(base.row(i));
  for (size_t i = 0; i < base.num_rows(); ++i) copy.AppendRow(base.row(i));
  return copy;
}

void BM_Deduplicate(benchmark::State& state) {
  MicroEnv& env = Env();
  for (auto _ : state) {
    state.PauseTiming();
    Relation copy = DoubledTypeScan(env);
    state.ResumeTiming();
    benchmark::DoNotOptimize(copy.Deduplicate());
  }
}
BENCHMARK(BM_Deduplicate);

// Tracing-off evaluator baseline: with no installed TraceSession every
// span construction is one thread-local load + branch. Compare against
// BM_EvaluateCQTraced to measure the observability layer's overhead (the
// acceptance bar is <2% for the disabled path vs. a build without spans).
void BM_EvaluateCQ(benchmark::State& state) {
  MicroEnv& env = Env();
  const EngineProfile& profile = PostgresLikeProfile();
  Evaluator evaluator(&env.store, &profile);
  Result<Query> q = ParseQuery(LubmMotivatingQ1().text, &env.graph.dict());
  if (!q.ok()) {
    state.SkipWithError("parse failed");
    return;
  }
  for (auto _ : state) {
    Result<Relation> r = evaluator.EvaluateCQ(q.ValueOrDie().cq, nullptr);
    benchmark::DoNotOptimize(r.ok());
  }
}
BENCHMARK(BM_EvaluateCQ);

void BM_EvaluateCQTraced(benchmark::State& state) {
  MicroEnv& env = Env();
  const EngineProfile& profile = PostgresLikeProfile();
  Evaluator evaluator(&env.store, &profile);
  Result<Query> q = ParseQuery(LubmMotivatingQ1().text, &env.graph.dict());
  if (!q.ok()) {
    state.SkipWithError("parse failed");
    return;
  }
  TraceSession session;
  ScopedTraceSession scoped(&session);
  for (auto _ : state) {
    session.Clear();
    Result<Relation> r = evaluator.EvaluateCQ(q.ValueOrDie().cq, nullptr);
    benchmark::DoNotOptimize(r.ok());
  }
}
BENCHMARK(BM_EvaluateCQTraced);

// Splits the plan-once pipeline at its seam: BM_PlanJucq times building the
// physical plan for a reformulated UCQ (cardinality estimation + greedy join
// ordering + costing), BM_ExecutePlannedJucq times executing that prebuilt
// plan. Their sum approximates BM_EvaluateCQ minus reformulation; the ratio
// shows how much of a repeated query's latency the plan cache can save.
JoinOfUnions ReformulatedQ1Jucq(MicroEnv& env, VarTable* vars) {
  Result<Query> q = ParseQuery(LubmMotivatingQ1().text, &env.graph.dict());
  Reformulator reformulator(&env.graph.schema(), &env.graph.vocab());
  *vars = q.ValueOrDie().vars;
  Result<UnionQuery> ucq =
      reformulator.ReformulateCQ(q.ValueOrDie().cq, vars);
  JoinOfUnions jucq;
  jucq.head = ucq.ValueOrDie().head;
  jucq.components.push_back(ucq.TakeValue());
  return jucq;
}

void BM_PlanJucq(benchmark::State& state) {
  MicroEnv& env = Env();
  const EngineProfile& profile = PostgresLikeProfile();
  Evaluator evaluator(&env.store, &profile);
  VarTable vars;
  JoinOfUnions jucq = ReformulatedQ1Jucq(env, &vars);
  for (auto _ : state) {
    PhysicalPlan plan = evaluator.planner().PlanJUCQ(jucq);
    benchmark::DoNotOptimize(plan.num_nodes);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(jucq.components[0].size()));
}
BENCHMARK(BM_PlanJucq);

// The headline executor benchmark: the batch engine (Vectorized postgres
// profile — kBatchRows-wide operators, shared union subplans, radix dedup)
// executing the prebuilt ~2256-disjunct plan. The acceptance bar for the
// batch refactor is >= 5x over the BENCH_baseline.json value recorded for
// the seed tuple engine (kept below as BM_ExecutePlannedJucqTuple).
void BM_ExecutePlannedJucq(benchmark::State& state) {
  MicroEnv& env = Env();
  static const EngineProfile& profile =
      *new EngineProfile(Vectorized(PostgresLikeProfile()));
  Evaluator evaluator(&env.store, &profile);
  VarTable vars;
  JoinOfUnions jucq = ReformulatedQ1Jucq(env, &vars);
  PhysicalPlan plan = evaluator.planner().PlanJUCQ(jucq);
  for (auto _ : state) {
    Result<Relation> r = evaluator.ExecutePlan(&plan, nullptr);
    benchmark::DoNotOptimize(r.ok());
  }
}
BENCHMARK(BM_ExecutePlannedJucq);

// The seed's tuple-at-a-time overhead model on the identical plan shape:
// the old-engine column of the sidecar, for the batch-vs-tuple comparison.
void BM_ExecutePlannedJucqTuple(benchmark::State& state) {
  MicroEnv& env = Env();
  const EngineProfile& profile = PostgresLikeProfile();
  Evaluator evaluator(&env.store, &profile);
  VarTable vars;
  JoinOfUnions jucq = ReformulatedQ1Jucq(env, &vars);
  PhysicalPlan plan = evaluator.planner().PlanJUCQ(jucq);
  for (auto _ : state) {
    Result<Relation> r = evaluator.ExecutePlan(&plan, nullptr);
    benchmark::DoNotOptimize(r.ok());
  }
}
BENCHMARK(BM_ExecutePlannedJucqTuple);

// The same prebuilt ~2256-disjunct UCQ plan executed with
// EngineProfile::worker_threads = Arg (1 = inline execution). Answers and
// counters are identical across args (DESIGN.md §9). Emulated latency is
// zeroed (as in perfbench's profile), so real time shows the engine's own
// morsel-parallel speedup, not spin time divided over cores. `--threads N`
// adds N to the arg list.
void BM_ExecuteUnionParallel(benchmark::State& state) {
  MicroEnv& env = Env();
  EngineProfile profile = PostgresLikeProfile();
  profile.tuple_us_per_row = 0.0;
  profile.materialization_us_per_row = 0.0;
  profile.union_term_overhead_us = 0.0;
  profile.worker_threads = static_cast<size_t>(state.range(0));
  Evaluator evaluator(&env.store, &profile);
  VarTable vars;
  JoinOfUnions jucq = ReformulatedQ1Jucq(env, &vars);
  PhysicalPlan plan = evaluator.planner().PlanJUCQ(jucq);
  for (auto _ : state) {
    Result<Relation> r = evaluator.ExecutePlan(&plan, nullptr);
    benchmark::DoNotOptimize(r.ok());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(jucq.components[0].size()));
}
BENCHMARK(BM_ExecuteUnionParallel)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

// Hash-join probe loop with and without software prefetch of the upcoming
// probe's hash-table slot (EngineProfile::prefetch_probes). The build and
// probe sides are the two largest scans of the fixture, so the table
// outgrows L2 and the probe loop is memory-latency-bound — the regime the
// prefetch targets.
void BM_HashJoinProbe(benchmark::State& state) {
  MicroEnv& env = Env();
  Relation left = ScanAtom(env.store,
                           TriplePattern{PatternTerm::Var(0),
                                         PatternTerm::Const(env.rdf_type),
                                         PatternTerm::Var(1)});
  Relation right = ScanAtom(env.store,
                            TriplePattern{PatternTerm::Var(0),
                                          PatternTerm::Const(env.takes_course),
                                          PatternTerm::Var(2)});
  for (auto _ : state) {
    Relation joined = HashJoin(left, right, /*prefetch=*/false);
    benchmark::DoNotOptimize(joined.num_rows());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(left.num_rows() +
                                               right.num_rows()));
}
BENCHMARK(BM_HashJoinProbe);

void BM_HashJoinProbePrefetch(benchmark::State& state) {
  MicroEnv& env = Env();
  Relation left = ScanAtom(env.store,
                           TriplePattern{PatternTerm::Var(0),
                                         PatternTerm::Const(env.rdf_type),
                                         PatternTerm::Var(1)});
  Relation right = ScanAtom(env.store,
                            TriplePattern{PatternTerm::Var(0),
                                          PatternTerm::Const(env.takes_course),
                                          PatternTerm::Var(2)});
  for (auto _ : state) {
    Relation joined = HashJoin(left, right, /*prefetch=*/true);
    benchmark::DoNotOptimize(joined.num_rows());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(left.num_rows() +
                                               right.num_rows()));
}
BENCHMARK(BM_HashJoinProbePrefetch);

// Hierarchy-range collapse fixture (DESIGN.md §12): one university with 240
// fine-grained professor specialty leaf classes, so `?x type ub:Professor`
// reformulates into ~247 type disjuncts whose class hids form one DFS
// interval. Separate from MicroEnv on purpose — the specialty knob changes
// the generated dataset, and every other benchmark must keep the stock one.
struct HierarchyEnv {
  Graph graph;
  TripleStore store;
  UnionQuery ucq;
  VarTable vars;

  HierarchyEnv() {
    LubmOptions options;
    options.num_universities = 1;
    options.fine_grained_specializations = 240;
    GenerateLubm(options, &graph);
    graph.FinalizeSchema();
    store = TripleStore::Build(graph.data_triples());
    store.AttachHierarchy(std::make_shared<const HierarchyEncoding>(
        HierarchyEncoding::Build(graph.schema(), graph.vocab().rdf_type)));
    Result<Query> q = ParseQuery(
        "PREFIX ub: <http://lubm.example.org/univ#>\n"
        "SELECT ?x WHERE { ?x a ub:Professor . }",
        &graph.dict());
    Reformulator reformulator(&graph.schema(), &graph.vocab());
    vars = q.ValueOrDie().vars;
    ucq = reformulator.ReformulateCQ(q.ValueOrDie().cq, &vars).ValueOrDie();
  }
};

HierarchyEnv& HierEnv() {
  static HierarchyEnv& env = *new HierarchyEnv();
  return env;
}

/// Batch profile with the emulated per-term/per-tuple engine overheads
/// zeroed: the ScanRange-vs-union ratio below must come from real executor
/// work (per-branch scan setup, projection, union append), not from the
/// profile's physical emulation of external engines.
EngineProfile HierarchyBenchProfile(bool hierarchy_ranges) {
  EngineProfile p = Vectorized(PostgresLikeProfile());
  p.tuple_us_per_row = 0.0;
  p.materialization_us_per_row = 0.0;
  p.union_term_overhead_us = 0.0;
  p.hierarchy_ranges = hierarchy_ranges;
  return p;
}

// The tentpole pair: the same ~247-term reformulated type query executed as
// a single ScanRange plan (hierarchy encoding on) vs. the union-of-scans
// plan (encoding off). The perf-smoke gate holds the ratio at >= 3x.
void BM_ExecuteScanRangeJucq(benchmark::State& state) {
  HierarchyEnv& env = HierEnv();
  static const EngineProfile& profile =
      *new EngineProfile(HierarchyBenchProfile(/*hierarchy_ranges=*/true));
  Evaluator evaluator(&env.store, &profile);
  PhysicalPlan plan = evaluator.planner().PlanUCQ(env.ucq);
  if (plan.root->children[0]->union_terms >= env.ucq.disjuncts.size()) {
    state.SkipWithError("union did not collapse");
    return;
  }
  for (auto _ : state) {
    Result<Relation> r = evaluator.ExecutePlan(&plan, nullptr);
    benchmark::DoNotOptimize(r.ok());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(env.ucq.disjuncts.size()));
}
BENCHMARK(BM_ExecuteScanRangeJucq);

void BM_ExecuteUnionOfScansJucq(benchmark::State& state) {
  HierarchyEnv& env = HierEnv();
  static const EngineProfile& profile =
      *new EngineProfile(HierarchyBenchProfile(/*hierarchy_ranges=*/false));
  Evaluator evaluator(&env.store, &profile);
  PhysicalPlan plan = evaluator.planner().PlanUCQ(env.ucq);
  for (auto _ : state) {
    Result<Relation> r = evaluator.ExecutePlan(&plan, nullptr);
    benchmark::DoNotOptimize(r.ok());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(env.ucq.disjuncts.size()));
}
BENCHMARK(BM_ExecuteUnionOfScansJucq);

/// Minimal in-process view resolver for the pair below: remembers every
/// offered fragment result and serves it back, so executing the same plan
/// again reads the component from the view (DESIGN.md §14).
class BenchViewResolver : public ViewResolver {
 public:
  void NoteComponent(const std::string&, const UnionQuery&, double,
                     size_t) override {}
  std::shared_ptr<const Relation> Lookup(
      const std::string& signature) override {
    auto it = store_.find(signature);
    return it == store_.end() ? nullptr : it->second;
  }
  void Offer(const std::string& signature, const Relation& rows) override {
    store_[signature] = std::make_shared<const Relation>(rows.Copy());
  }

 private:
  std::unordered_map<std::string, std::shared_ptr<const Relation>> store_;
};

// The materialized-view pair: the same ~247-term reformulated type query
// served by an execution-time view hit (one plan, executed once to harvest
// the component's rows, then timed) vs. re-evaluating the full union of
// scans each time. The perf-smoke gate holds the ratio at >= 3x.
void BM_ExecuteViewScanJucq(benchmark::State& state) {
  HierarchyEnv& env = HierEnv();
  static const EngineProfile& profile =
      *new EngineProfile(HierarchyBenchProfile(/*hierarchy_ranges=*/false));
  Evaluator evaluator(&env.store, &profile);
  BenchViewResolver views;
  evaluator.set_views(&views);
  PhysicalPlan plan = evaluator.planner().PlanUCQ(env.ucq);
  for (int run = 0; run < 2; ++run) {
    EvalMetrics metrics;
    if (!evaluator.ExecutePlan(&plan, &metrics).ok()) {
      state.SkipWithError("harvest execution failed");
      return;
    }
    if (run == 1 && metrics.view_hits == 0) {
      state.SkipWithError("the resolver served no view hit");
      return;
    }
  }
  for (auto _ : state) {
    Result<Relation> r = evaluator.ExecutePlan(&plan, nullptr);
    benchmark::DoNotOptimize(r.ok());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(env.ucq.disjuncts.size()));
}
BENCHMARK(BM_ExecuteViewScanJucq);

void BM_ExecuteViewsOffJucq(benchmark::State& state) {
  HierarchyEnv& env = HierEnv();
  static const EngineProfile& profile =
      *new EngineProfile(HierarchyBenchProfile(/*hierarchy_ranges=*/false));
  Evaluator evaluator(&env.store, &profile);
  PhysicalPlan plan = evaluator.planner().PlanUCQ(env.ucq);
  for (auto _ : state) {
    Result<Relation> r = evaluator.ExecutePlan(&plan, nullptr);
    benchmark::DoNotOptimize(r.ok());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(env.ucq.disjuncts.size()));
}
BENCHMARK(BM_ExecuteViewsOffJucq);

void BM_ReformulateTypeVariableAtom(benchmark::State& state) {
  MicroEnv& env = Env();
  Reformulator reformulator(&env.graph.schema(), &env.graph.vocab());
  for (auto _ : state) {
    VarTable vars;
    VarId x = vars.GetOrCreate("x");
    VarId y = vars.GetOrCreate("y");
    TriplePattern atom{PatternTerm::Var(x), PatternTerm::Const(env.rdf_type),
                       PatternTerm::Var(y)};
    auto refs = reformulator.ReformulateAtom(atom, &vars);
    benchmark::DoNotOptimize(refs.size());
  }
}
BENCHMARK(BM_ReformulateTypeVariableAtom);

void BM_ReformulateMotivatingQ1(benchmark::State& state) {
  MicroEnv& env = Env();
  Reformulator reformulator(&env.graph.schema(), &env.graph.vocab());
  Result<Query> q = ParseQuery(LubmMotivatingQ1().text, &env.graph.dict());
  if (!q.ok()) {
    state.SkipWithError("parse failed");
    return;
  }
  for (auto _ : state) {
    VarTable vars = q.ValueOrDie().vars;
    Result<UnionQuery> ucq =
        reformulator.ReformulateCQ(q.ValueOrDie().cq, &vars);
    benchmark::DoNotOptimize(ucq.ok());
  }
}
BENCHMARK(BM_ReformulateMotivatingQ1);

void BM_EnumerateCovers(benchmark::State& state) {
  const size_t atoms = static_cast<size_t>(state.range(0));
  Dictionary dict;
  std::string text = "SELECT ?a WHERE {";
  for (size_t i = 0; i < atoms; ++i) {
    text += " ?a <p" + std::to_string(i) + "> ?v" + std::to_string(i) + " .";
  }
  text += " }";
  Result<Query> q = ParseQuery(text, &dict);
  if (!q.ok()) {
    state.SkipWithError("parse failed");
    return;
  }
  for (auto _ : state) {
    bool timed_out = false;
    auto covers = EnumerateCovers(q.ValueOrDie().cq, 60.0, 10'000'000,
                                  &timed_out);
    benchmark::DoNotOptimize(covers.size());
  }
}
BENCHMARK(BM_EnumerateCovers)->Arg(4)->Arg(5)->Arg(6);

void BM_Saturation(benchmark::State& state) {
  MicroEnv& env = Env();
  for (auto _ : state) {
    SaturationResult sat =
        Saturate(env.store, env.graph.schema(), env.graph.vocab());
    benchmark::DoNotOptimize(sat.output_triples);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(env.store.size()));
}
BENCHMARK(BM_Saturation);

void BM_TripleStoreBuild(benchmark::State& state) {
  MicroEnv& env = Env();
  for (auto _ : state) {
    std::vector<Triple> copy(env.graph.data_triples());
    TripleStore store = TripleStore::Build(std::move(copy));
    benchmark::DoNotOptimize(store.size());
  }
}
BENCHMARK(BM_TripleStoreBuild);

}  // namespace

/// `--threads N` beyond the statically registered 1/2/4 sweep adds one more
/// BM_ExecuteUnionParallel configuration at that count.
void RegisterExtraThreadArg() {
  size_t threads = bench::BenchWorkerThreads();
  if (threads == 1 || threads == 2 || threads == 4) return;
  benchmark::RegisterBenchmark("BM_ExecuteUnionParallel",
                               BM_ExecuteUnionParallel)
      ->Arg(static_cast<int64_t>(threads))
      ->UseRealTime();
}

}  // namespace rdfopt

int main(int argc, char** argv) {
  rdfopt::bench::InitBenchThreads(&argc, argv);
  rdfopt::RegisterExtraThreadArg();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
