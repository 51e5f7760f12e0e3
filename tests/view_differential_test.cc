// Views-on ≡ views-off differential (DESIGN.md §14): answering with the
// materialized-view subsystem enabled must produce bit-identical rows in
// identical order to answering without it — across workloads (LUBM, DBLP),
// worker counts (1, 4), strategies, mid-stream epoch updates that
// invalidate materialized views, and the plan cache on or off.
//
// Method: two services over two separately built but identical graphs,
// differing only in enable_views. Views are read where components execute,
// so both paths are covered: with the plan cache off every request
// replans and repeats read views from fresh plans; with it on, repeats are
// plan-cache hits and must read the views admitted since their plan was
// cached. Estimate feedback is disabled on both sides: feedback stores
// diverge once views skip some unions (served components record no
// per-disjunct actuals), and diverged estimates change plan shapes, hence
// row order — so the subsystems are compared under history-free planning,
// the mode the bit-identical guarantee is stated for.

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "engine/engine_profile.h"
#include "service/query_service.h"
#include "workload/dblp.h"
#include "workload/lubm.h"
#include "workload/query_sets.h"

namespace rdfopt {
namespace {

enum class Load { kLubm, kDblp };

void Generate(Load load, Graph* graph) {
  if (load == Load::kLubm) {
    LubmOptions options;
    options.num_universities = 1;
    options.fine_grained_specializations = 16;
    GenerateLubm(options, graph);
  } else {
    GenerateDblp(DblpOptionsForTripleTarget(20000), graph);
  }
  graph->FinalizeSchema();
}

std::vector<std::string> QueryTexts(Load load) {
  std::vector<std::string> texts;
  if (load == Load::kLubm) {
    // Distinct queries sharing hot fragments (the Professor/Faculty type
    // unions), then the whole list again so views are definitely read.
    // Index 16 factors shared subplans under the batch profile.
    for (size_t qi : {size_t{1}, size_t{7}, size_t{0}, size_t{19},
                      size_t{9}, size_t{16}}) {
      texts.push_back(LubmQuerySet()[qi].text);
    }
  } else {
    for (size_t qi : {size_t{0}, size_t{4}, size_t{6}, size_t{7}}) {
      texts.push_back(DblpQuerySet()[qi].text);
    }
  }
  const size_t distinct = texts.size();
  for (size_t i = 0; i < distinct; ++i) texts.push_back(texts[i]);
  return texts;
}

/// Exact row-major cell sequence: equality means bit-identical rows AND
/// ordering, the full strength of the substitution guarantee.
std::vector<ValueId> FlatRows(const Relation& r) {
  return std::vector<ValueId>(r.cells_data(),
                              r.cells_data() + r.num_cells());
}

ServiceOptions Options(Strategy strategy, bool enable_views,
                       bool plan_cache) {
  ServiceOptions options;
  options.answer.strategy = strategy;
  options.enable_cache = plan_cache;
  options.enable_feedback = false;  // History-free planning on both sides.
  options.enable_views = enable_views;
  options.view_advisor_interval = 4;  // Exercise pinning mid-stream.
  options.view_min_observations = 2;
  return options;
}

void RunDifferential(Load load, Strategy strategy, size_t workers,
                     bool epoch_churn, bool plan_cache,
                     const EngineProfile& base = PostgresLikeProfile()) {
  Graph graph_off;
  Graph graph_on;
  Generate(load, &graph_off);
  Generate(load, &graph_on);

  EngineProfile profile = base;
  profile.worker_threads = workers;

  QueryService off(&graph_off, profile,
                   Options(strategy, false, plan_cache));
  QueryService on(&graph_on, profile, Options(strategy, true, plan_cache));

  const std::vector<std::string> texts = QueryTexts(load);
  // Catalog hits served while executing plan-cache hits; per request of the
  // first pass, the view hits and the shared-subplan roots executed.
  uint64_t hits_on_cached_plans = 0;
  std::vector<uint64_t> request_hits(texts.size());
  std::vector<size_t> shared_roots_run(texts.size());
  auto compare_stream = [&](const char* phase) {
    for (size_t i = 0; i < texts.size(); ++i) {
      Result<ServiceOutcome> r_off = off.AnswerText(texts[i]);
      const uint64_t hits_before = on.stats().views.hits;
      Result<ServiceOutcome> r_on = on.AnswerText(texts[i]);
      ASSERT_TRUE(r_off.ok()) << phase << " q" << i << ": "
                              << r_off.status().ToString();
      ASSERT_TRUE(r_on.ok()) << phase << " q" << i << ": "
                             << r_on.status().ToString();
      ASSERT_EQ(r_off.ValueOrDie().cache_hit, r_on.ValueOrDie().cache_hit);
      const uint64_t hits = on.stats().views.hits - hits_before;
      if (r_on.ValueOrDie().cache_hit) hits_on_cached_plans += hits;
      const std::vector<PlanNodeStats>& nodes = r_on.ValueOrDie().node_stats;
      request_hits[i] = hits;
      shared_roots_run[i] = static_cast<size_t>(
          std::count_if(nodes.begin(), nodes.end(), [](const PlanNodeStats& n) {
            return n.shared_index >= 0 && n.kind != "SharedRef";
          }));
      const Relation& a = r_off.ValueOrDie().answers;
      const Relation& b = r_on.ValueOrDie().answers;
      ASSERT_EQ(a.columns().size(), b.columns().size());
      ASSERT_EQ(a.num_rows(), b.num_rows())
          << phase << " q" << i << ": row count diverged";
      ASSERT_EQ(FlatRows(a), FlatRows(b))
          << phase << " q" << i << ": rows or ordering diverged";
    }
  };

  compare_stream("initial");
  // Not vacuous: the views side must actually have read views, on cached
  // plans too when the cache is on.
  EXPECT_GT(on.stats().views.hits, 0u) << "no view was ever read";
  EXPECT_GT(on.stats().views.admitted, 0u);
  if (plan_cache) {
    EXPECT_GT(hits_on_cached_plans, 0u) << "plan-cache hits read no view";
  }
  if (profile.share_union_subplans) {
    // LUBM query 16 factors shared subplans: its first run executes them,
    // and its repeat, served from the view its component offered, runs
    // none of them (rows compared bit-identical above).
    ASSERT_EQ(load, Load::kLubm);
    const size_t first = 5;
    const size_t repeat = first + texts.size() / 2;
    ASSERT_EQ(texts[first], LubmQuerySet()[16].text);
    ASSERT_EQ(texts[repeat], texts[first]);
    EXPECT_GT(shared_roots_run[first], 0u)
        << "query 16 no longer factors shared subplans";
    EXPECT_GT(request_hits[repeat], 0u) << "query 16's repeat read no view";
    EXPECT_EQ(shared_roots_run[repeat], 0u)
        << "shared subplans ran for a component served from a view";
  }

  if (!epoch_churn) return;

  // Mid-stream update touching the hottest fragment (a new FullProfessor /
  // Article instance lands inside the substituted type unions), applied
  // identically to both services: views must invalidate, both sides must
  // see the new data, and answers must stay bit-identical.
  auto apply = [&](QueryService* service, Graph* graph) {
    Triple t;
    if (load == Load::kLubm) {
      t.s = graph->dict().InternIri(
          "http://lubm.example.org/data/late_professor");
      t.p = graph->dict().InternIri(
          "http://www.w3.org/1999/02/22-rdf-syntax-ns#type");
      t.o = graph->dict().InternIri(
          "http://lubm.example.org/univ#FullProfessor");
    } else {
      t.s = graph->dict().InternIri("http://dblp.example.org/rec/late_pub");
      t.p = graph->dict().InternIri(
          "http://www.w3.org/1999/02/22-rdf-syntax-ns#type");
      t.o = graph->dict().InternIri("http://dblp.example.org/bib#Article");
    }
    ASSERT_TRUE(service->ApplyUpdate({t}).ok());
  };
  const uint64_t invalidations_before = on.stats().views.invalidations +
                                        on.stats().views.refreshes;
  apply(&off, &graph_off);
  apply(&on, &graph_on);
  EXPECT_GT(
      on.stats().views.invalidations + on.stats().views.refreshes,
      invalidations_before)
      << "the update did not invalidate or refresh any materialized view";

  compare_stream("post-update");
  // The substituted fragments reflect the new epoch's data, not stale rows:
  // the first query's result must now include the late instance.
  Result<ServiceOutcome> grown = on.AnswerText(texts[0]);
  ASSERT_TRUE(grown.ok());
  EXPECT_GT(grown.ValueOrDie().answers.num_rows(), 0u);
}

// LUBM, singleton covers (every atom its own component — the shared-fragment
// scenario), serial and parallel, with mid-stream epoch churn.
TEST(ViewDifferentialTest, LubmScqSingleWorkerWithEpochChurn) {
  RunDifferential(Load::kLubm, Strategy::kScq, 1, /*epoch_churn=*/true,
                  /*plan_cache=*/false);
}

TEST(ViewDifferentialTest, LubmScqFourWorkersWithEpochChurn) {
  RunDifferential(Load::kLubm, Strategy::kScq, 4, /*epoch_churn=*/true,
                  /*plan_cache=*/false);
}

// The same stream with the plan cache on: repeats execute cached plans,
// which read the views their components offered on the first run.
TEST(ViewDifferentialTest, LubmScqFourWorkersWithEpochChurnPlanCache) {
  RunDifferential(Load::kLubm, Strategy::kScq, 4, /*epoch_churn=*/true,
                  /*plan_cache=*/true);
}

// Whole-query views: a UCQ cover has one component, so the view is the
// entire reformulated union.
TEST(ViewDifferentialTest, LubmUcqSingleWorker) {
  RunDifferential(Load::kLubm, Strategy::kUcq, 1, /*epoch_churn=*/false,
                  /*plan_cache=*/false);
}

// Cost-chosen JUCQ covers, and the batch engine with union-subplan
// factoring: shared subplans whose consumers are all served from views do
// not run.
TEST(ViewDifferentialTest, LubmGcovSharedSubplansFourWorkers) {
  EngineProfile batch = Vectorized(PostgresLikeProfile());
  ASSERT_TRUE(batch.share_union_subplans);
  RunDifferential(Load::kLubm, Strategy::kGcov, 4, /*epoch_churn=*/false,
                  /*plan_cache=*/false, batch);
}

TEST(ViewDifferentialTest, LubmGcovSharedSubplansFourWorkersPlanCache) {
  EngineProfile batch = Vectorized(PostgresLikeProfile());
  ASSERT_TRUE(batch.share_union_subplans);
  RunDifferential(Load::kLubm, Strategy::kGcov, 4, /*epoch_churn=*/false,
                  /*plan_cache=*/true, batch);
}

TEST(ViewDifferentialTest, DblpScqSingleWorkerWithEpochChurn) {
  RunDifferential(Load::kDblp, Strategy::kScq, 1, /*epoch_churn=*/true,
                  /*plan_cache=*/false);
}

TEST(ViewDifferentialTest, DblpUcqFourWorkers) {
  RunDifferential(Load::kDblp, Strategy::kUcq, 4, /*epoch_churn=*/false,
                  /*plan_cache=*/false);
}

}  // namespace
}  // namespace rdfopt
