// Determinism of the parallel executor (DESIGN.md §9): at any
// worker_threads setting, answers, EvalMetrics totals, EXPLAIN ANALYZE
// actuals and trace span structure must be identical to the inline run,
// also when a plan built at one thread count executes at another.

#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/trace.h"
#include "engine/evaluator.h"
#include "engine/explain.h"
#include "optimizer/cover.h"
#include "reformulation/reformulator.h"
#include "sparql/parser.h"
#include "workload/lubm.h"
#include "workload/query_sets.h"

namespace rdfopt {
namespace {

struct ParallelBench {
  Graph graph;
  TripleStore store;
  EngineProfile profile;

  ParallelBench() {
    LubmOptions options;
    options.num_universities = 1;
    GenerateLubm(options, &graph);
    graph.FinalizeSchema();
    store = TripleStore::Build(graph.data_triples());
    profile = PostgresLikeProfile();
    profile.max_union_terms = 1u << 20;
    profile.timeout_seconds = 300.0;
  }
};

ParallelBench& Bench() {
  static ParallelBench& bench = *new ParallelBench();
  return bench;
}

// The five integer counters; elapsed_ms is wall clock and may differ.
std::vector<size_t> Counters(const EvalMetrics& m) {
  return {m.rows_scanned, m.join_input_rows, m.union_terms,
          m.rows_materialized, m.duplicates_removed};
}

void ExpectIdenticalRelations(const Relation& a, const Relation& b) {
  ASSERT_EQ(a.columns(), b.columns());
  ASSERT_EQ(a.num_rows(), b.num_rows());
  for (size_t r = 0; r < a.num_rows(); ++r) {
    for (size_t c = 0; c < a.arity(); ++c) {
      ASSERT_EQ(a.at(r, c), b.at(r, c)) << "row " << r << " col " << c;
    }
  }
}

// Reformulates a benchmark query to its UCQ (q_ref).
UnionQuery MustReformulate(const std::string& text, Query* parsed_out) {
  ParallelBench& bench = Bench();
  Result<Query> parsed = ParseQuery(text, &bench.graph.dict());
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  *parsed_out = parsed.TakeValue();
  Reformulator reformulator(&bench.graph.schema(), &bench.graph.vocab());
  Result<UnionQuery> ucq =
      reformulator.ReformulateCQ(parsed_out->cq, &parsed_out->vars);
  EXPECT_TRUE(ucq.ok()) << ucq.status().ToString();
  return ucq.TakeValue();
}

TEST(ParallelEvalTest, UcqIdenticalRowsAndMetricsAcrossThreadCounts) {
  ParallelBench& bench = Bench();
  Query q;
  UnionQuery ucq = MustReformulate(LubmMotivatingQ1().text, &q);
  ASSERT_GT(ucq.size(), 100u);  // A real fan-out, not a toy.

  EngineProfile seq_profile = bench.profile;
  seq_profile.worker_threads = 1;
  EngineProfile par_profile = bench.profile;
  par_profile.worker_threads = 4;
  Evaluator sequential(&bench.store, &seq_profile);
  Evaluator parallel(&bench.store, &par_profile);

  EvalMetrics seq_metrics, par_metrics;
  Result<Relation> seq = sequential.EvaluateUCQ(ucq, &seq_metrics);
  Result<Relation> par = parallel.EvaluateUCQ(ucq, &par_metrics);
  ASSERT_TRUE(seq.ok()) << seq.status().ToString();
  ASSERT_TRUE(par.ok()) << par.status().ToString();

  ExpectIdenticalRelations(seq.ValueOrDie(), par.ValueOrDie());
  EXPECT_EQ(Counters(seq_metrics), Counters(par_metrics));
  EXPECT_GT(par_metrics.duplicates_removed, 0u);  // Dedup exercised.
}

TEST(ParallelEvalTest, JucqIdenticalAcrossThreadCounts) {
  ParallelBench& bench = Bench();
  Result<Query> parsed =
      ParseQuery(LubmMotivatingQ1().text, &bench.graph.dict());
  ASSERT_TRUE(parsed.ok());
  Query q = parsed.TakeValue();
  Reformulator reformulator(&bench.graph.schema(), &bench.graph.vocab());

  // The SCQ extreme point: one component per atom, so the evaluation joins
  // parallel unions with parallel component-pair execution on top.
  Cover cover = ScqCover(q.cq.atoms.size());
  VarTable vars = q.vars;
  Result<JoinOfUnions> jucq = CoverBasedReformulation(
      q.cq, cover, reformulator, &vars, /*max_disjuncts_per_fragment=*/1u << 20);
  ASSERT_TRUE(jucq.ok()) << jucq.status().ToString();

  EngineProfile seq_profile = bench.profile;
  seq_profile.worker_threads = 1;
  Evaluator sequential(&bench.store, &seq_profile);
  EvalMetrics seq_metrics;
  Result<Relation> seq =
      sequential.EvaluateJUCQ(jucq.ValueOrDie(), &seq_metrics);
  ASSERT_TRUE(seq.ok()) << seq.status().ToString();

  for (size_t threads : {2u, 4u}) {
    EngineProfile par_profile = bench.profile;
    par_profile.worker_threads = threads;
    Evaluator parallel(&bench.store, &par_profile);
    EvalMetrics par_metrics;
    Result<Relation> par =
        parallel.EvaluateJUCQ(jucq.ValueOrDie(), &par_metrics);
    ASSERT_TRUE(par.ok()) << par.status().ToString();
    ExpectIdenticalRelations(seq.ValueOrDie(), par.ValueOrDie());
    EXPECT_EQ(Counters(seq_metrics), Counters(par_metrics))
        << threads << " threads";
  }

  // A cached plan: built at one thread count, executed at another. Plans
  // carry no parallelism, so rows and counters cannot tell the difference.
  for (auto [plan_threads, exec_threads] :
       {std::pair<size_t, size_t>{1, 4}, std::pair<size_t, size_t>{4, 1}}) {
    EngineProfile plan_profile = bench.profile;
    plan_profile.worker_threads = plan_threads;
    EngineProfile exec_profile = bench.profile;
    exec_profile.worker_threads = exec_threads;
    PhysicalPlan plan = Evaluator(&bench.store, &plan_profile)
                            .planner()
                            .PlanJUCQ(jucq.ValueOrDie());
    Evaluator executor(&bench.store, &exec_profile);
    EvalMetrics metrics;
    Result<Relation> r = executor.ExecutePlan(&plan, &metrics);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ExpectIdenticalRelations(seq.ValueOrDie(), r.ValueOrDie());
    EXPECT_EQ(Counters(seq_metrics), Counters(metrics))
        << "planned at " << plan_threads << ", executed at " << exec_threads;
  }
}

TEST(ParallelEvalTest, TraceSpanStructureMatchesSequential) {
  ParallelBench& bench = Bench();
  Query q;
  UnionQuery ucq = MustReformulate(LubmMotivatingQ1().text, &q);

  auto spans_of = [&](size_t threads) {
    EngineProfile profile = bench.profile;
    profile.worker_threads = threads;
    Evaluator evaluator(&bench.store, &profile);
    TraceSession session;
    ScopedTraceSession scoped(&session);
    EXPECT_TRUE(evaluator.EvaluateUCQ(ucq, nullptr).ok());
    // (name, parent, depth) triples in recorded order; workers' spans are
    // adopted in disjunct order, so the flat encoding must match exactly.
    std::vector<std::string> flat;
    for (const TraceSpanRecord& s : session.spans()) {
      flat.push_back(s.name + "@" + std::to_string(s.parent) + "/" +
                     std::to_string(s.depth));
    }
    EXPECT_EQ(session.dropped_spans(), 0u);
    return flat;
  };

  std::vector<std::string> seq = spans_of(1);
  std::vector<std::string> par = spans_of(4);
  ASSERT_GT(seq.size(), ucq.size());  // At least one span per disjunct.
  EXPECT_EQ(seq, par);
}

TEST(ParallelEvalTest, ExplainActualsMatchSequential) {
  ParallelBench& bench = Bench();
  Query q;
  UnionQuery ucq = MustReformulate(LubmMotivatingQ1().text, &q);

  // Plans at `plan_threads`, executes at `exec_threads`: the cached-plan
  // case when the two differ. Returns the EXPLAIN ANALYZE text (timings off)
  // followed by every node's actual_rows.
  auto actuals_of = [&](size_t plan_threads, size_t exec_threads) {
    EngineProfile plan_profile = bench.profile;
    plan_profile.worker_threads = plan_threads;
    EngineProfile profile = bench.profile;
    profile.worker_threads = exec_threads;
    PhysicalPlan plan =
        Evaluator(&bench.store, &plan_profile).planner().PlanUCQ(ucq);
    Evaluator evaluator(&bench.store, &profile);
    EXPECT_TRUE(evaluator.ExecutePlan(&plan, nullptr).ok());
    ExplainOptions opts;
    opts.analyze = true;
    opts.analyze_timing = false;
    std::vector<std::string> actuals = {
        ExplainPlan(plan, q.vars, bench.graph.dict(), opts)};
    plan.ForEachNode([&](const PlanNode& node) {
      actuals.push_back(std::to_string(node.actual_rows));
    });
    return actuals;
  };

  const std::vector<std::string> sequential = actuals_of(1, 1);
  EXPECT_EQ(sequential, actuals_of(4, 4));
  EXPECT_EQ(sequential, actuals_of(1, 4));
  EXPECT_EQ(sequential, actuals_of(4, 1));
}

TEST(ParallelEvalTest, BatchEngineIdenticalRowsAndMetricsAcrossThreadCounts) {
  // The batch engine (PR 7): kBatchRows-wide operators plus union-subplan
  // factoring must keep the same determinism contract — shared subplans run
  // once on the coordinator, workers borrow them read-only, and the
  // morsel-ordered merge is bit-identical to the sequential run.
  ParallelBench& bench = Bench();
  Query q;
  UnionQuery ucq = MustReformulate(LubmMotivatingQ1().text, &q);

  EngineProfile seq_profile = Vectorized(bench.profile);
  seq_profile.worker_threads = 1;
  EngineProfile par_profile = Vectorized(bench.profile);
  par_profile.worker_threads = 4;
  Evaluator sequential(&bench.store, &seq_profile);
  Evaluator parallel(&bench.store, &par_profile);

  EvalMetrics seq_metrics, par_metrics;
  Result<Relation> seq = sequential.EvaluateUCQ(ucq, &seq_metrics);
  Result<Relation> par = parallel.EvaluateUCQ(ucq, &par_metrics);
  ASSERT_TRUE(seq.ok()) << seq.status().ToString();
  ASSERT_TRUE(par.ok()) << par.status().ToString();

  ExpectIdenticalRelations(seq.ValueOrDie(), par.ValueOrDie());
  EXPECT_EQ(Counters(seq_metrics), Counters(par_metrics));

  // And the batch engine's rows match the seed tuple engine's exactly.
  EngineProfile tuple_profile = bench.profile;
  tuple_profile.worker_threads = 1;
  Evaluator tuple_engine(&bench.store, &tuple_profile);
  Result<Relation> reference = tuple_engine.EvaluateUCQ(ucq, nullptr);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  ExpectIdenticalRelations(reference.ValueOrDie(), par.ValueOrDie());
}

TEST(ParallelEvalTest, ErrorsPropagateFromWorkers) {
  ParallelBench& bench = Bench();
  Query q;
  UnionQuery ucq = MustReformulate(LubmMotivatingQ1().text, &q);

  EngineProfile instant = bench.profile;
  instant.worker_threads = 4;
  instant.timeout_seconds = 0.0;
  Evaluator timed_out(&bench.store, &instant);
  Result<Relation> r = timed_out.EvaluateUCQ(ucq, nullptr);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kTimeout);

  EngineProfile tiny = bench.profile;
  tiny.worker_threads = 4;
  tiny.max_materialized_cells = 1;
  Evaluator budgeted(&bench.store, &tiny);
  Result<Query> parsed =
      ParseQuery(LubmMotivatingQ1().text, &bench.graph.dict());
  ASSERT_TRUE(parsed.ok());
  Reformulator reformulator(&bench.graph.schema(), &bench.graph.vocab());
  Cover cover = ScqCover(parsed.ValueOrDie().cq.atoms.size());
  VarTable vars = parsed.ValueOrDie().vars;
  Result<JoinOfUnions> jucq =
      CoverBasedReformulation(parsed.ValueOrDie().cq, cover, reformulator,
                              &vars, 1u << 20);
  ASSERT_TRUE(jucq.ok());
  Result<Relation> rb = budgeted.EvaluateJUCQ(jucq.ValueOrDie(), nullptr);
  ASSERT_FALSE(rb.ok());
  EXPECT_EQ(rb.status().code(), StatusCode::kResourceExhausted);
}

}  // namespace
}  // namespace rdfopt
