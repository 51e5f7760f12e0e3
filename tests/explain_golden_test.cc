// Golden-file tests pinning the EXPLAIN and EXPLAIN ANALYZE output for two
// fixed LUBM queries. The rendered text is the user-facing contract of the
// plan layer (shell `.explain`, docs); any change to the plan shape, the
// join orders or the formatting shows up as a readable diff against
// tests/golden/*.txt.
//
// To regenerate after an intentional change:
//   RDFOPT_UPDATE_GOLDENS=1 ./rdfopt_tests --gtest_filter='ExplainGolden*'

#include <memory>
#include <string>
#include <unordered_map>

#include <gtest/gtest.h>

#include "engine/evaluator.h"
#include "engine/explain.h"
#include "engine/view_resolver.h"
#include "golden.h"
#include "optimizer/answering.h"
#include "reformulation/reformulator.h"
#include "sparql/parser.h"
#include "workload/lubm.h"
#include "workload/query_sets.h"

namespace rdfopt {
namespace {

using testing::CheckGolden;

class ExplainGoldenTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    graph_ = new Graph();
    LubmOptions options;
    options.num_universities = 1;
    GenerateLubm(options, graph_);
    graph_->FinalizeSchema();
    store_ = new TripleStore(TripleStore::Build(graph_->data_triples()));
    stats_ = new Statistics(Statistics::Compute(*store_));
    profile_ = new EngineProfile(PostgresLikeProfile());
    answerer_ = new QueryAnswerer(store_, /*saturated=*/nullptr,
                                  &graph_->schema(), &graph_->vocab(), stats_,
                                  profile_);
  }

  /// Executes `text` under SCQ with the plan kept, so both the estimate-only
  /// EXPLAIN and the post-execution EXPLAIN ANALYZE render from the same
  /// (executed) plan. SCQ is a fixed cover: no optimizer search, fully
  /// deterministic output.
  AnswerOutcome MustAnswerScq(const std::string& text) {
    Result<Query> q = ParseQuery(text, &graph_->dict());
    EXPECT_TRUE(q.ok()) << q.status().ToString();
    AnswerOptions options;
    options.strategy = Strategy::kScq;
    options.keep_reformulation = true;
    Result<AnswerOutcome> r = answerer_->Answer(q.ValueOrDie(), options);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.TakeValue();
  }

  static Graph* graph_;
  static TripleStore* store_;
  static Statistics* stats_;
  static EngineProfile* profile_;
  static QueryAnswerer* answerer_;
};

Graph* ExplainGoldenTest::graph_ = nullptr;
TripleStore* ExplainGoldenTest::store_ = nullptr;
Statistics* ExplainGoldenTest::stats_ = nullptr;
EngineProfile* ExplainGoldenTest::profile_ = nullptr;
QueryAnswerer* ExplainGoldenTest::answerer_ = nullptr;

TEST_F(ExplainGoldenTest, MotivatingQ1ExplainAndAnalyze) {
  AnswerOutcome o = MustAnswerScq(LubmMotivatingQ1().text);
  ASSERT_TRUE(o.plan.has_value());
  CheckGolden("lubm_q1_scq_explain.txt",
              ExplainPlan(*o.plan, *o.jucq_vars, graph_->dict()));
  ExplainOptions analyze;
  analyze.analyze = true;
  // Per-node wall times are nondeterministic; keep them out of the golden.
  analyze.analyze_timing = false;
  CheckGolden("lubm_q1_scq_explain_analyze.txt",
              ExplainPlan(*o.plan, *o.jucq_vars, graph_->dict(), analyze));
}

TEST_F(ExplainGoldenTest, MotivatingQ1BatchEngineSharedExplainAndAnalyze) {
  // The batch engine's plan for q1's UCQ reformulation: the [vector=1024]
  // header, the shared-subplan preamble (union-subplan factoring), the
  // "[shared sN + hash join ...]" chain references, and — under ANALYZE —
  // scan counters attributed to each shared node exactly once, with the
  // consuming refs showing reuse (actual rows) but no scan work.
  Result<Query> parsed =
      ParseQuery(LubmMotivatingQ1().text, &graph_->dict());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  Query q = parsed.TakeValue();
  Reformulator reformulator(&graph_->schema(), &graph_->vocab());
  Result<UnionQuery> ucq = reformulator.ReformulateCQ(q.cq, &q.vars);
  ASSERT_TRUE(ucq.ok()) << ucq.status().ToString();

  EngineProfile batch = Vectorized(PostgresLikeProfile());
  batch.timeout_seconds = 300.0;
  Evaluator evaluator(store_, &batch);
  Planner planner = evaluator.planner();
  PhysicalPlan plan = planner.PlanUCQ(ucq.ValueOrDie());
  ASSERT_TRUE(evaluator.ExecutePlan(&plan, nullptr).ok());

  CheckGolden("lubm_q1_batch_shared_explain.txt",
              ExplainPlan(plan, q.vars, graph_->dict()));
  ExplainOptions analyze;
  analyze.analyze = true;
  // Per-node wall times are nondeterministic; keep them out of the golden.
  analyze.analyze_timing = false;
  CheckGolden("lubm_q1_batch_shared_explain_analyze.txt",
              ExplainPlan(plan, q.vars, graph_->dict(), analyze));
}

/// Remembers every offered fragment result and serves it back, so the second
/// execution of the same query reads every component from a view
/// (DESIGN.md §14).
class GoldenViewResolver : public ViewResolver {
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

TEST_F(ExplainGoldenTest, MotivatingQ1ViewSubstitutedExplain) {
  // Q1 answered twice through a view resolver: the first pass harvests each
  // component's deduplicated result, the second reads them back at
  // execution. The plan is the views-off plan; EXPLAIN ANALYZE marks every
  // component "[view hit: <sig>]" and shows its term chains not executed.
  GoldenViewResolver views;
  answerer_->EnableViews(&views);
  (void)MustAnswerScq(LubmMotivatingQ1().text);
  AnswerOutcome o = MustAnswerScq(LubmMotivatingQ1().text);
  answerer_->EnableViews(nullptr);
  ASSERT_TRUE(o.plan.has_value());
  EXPECT_EQ(o.eval.view_hits, o.plan->num_components);
  ExplainOptions analyze;
  analyze.analyze = true;
  // Per-node wall times are nondeterministic; keep them out of the golden.
  analyze.analyze_timing = false;
  CheckGolden("lubm_q1_scq_view_explain.txt",
              ExplainPlan(*o.plan, *o.jucq_vars, graph_->dict(), analyze));
}

TEST_F(ExplainGoldenTest, MotivatingQ2ExplainAndAnalyze) {
  // The paper's q2: its one-component UCQ reformulation is over every
  // profile's plan limit, but the SCQ cover stays feasible — six components,
  // exercising the materialize/pipeline split and the component join order.
  AnswerOutcome o = MustAnswerScq(LubmMotivatingQ2().text);
  ASSERT_TRUE(o.plan.has_value());
  CheckGolden("lubm_q2_scq_explain.txt",
              ExplainPlan(*o.plan, *o.jucq_vars, graph_->dict()));
  ExplainOptions analyze;
  analyze.analyze = true;
  // Per-node wall times are nondeterministic; keep them out of the golden.
  analyze.analyze_timing = false;
  CheckGolden("lubm_q2_scq_explain_analyze.txt",
              ExplainPlan(*o.plan, *o.jucq_vars, graph_->dict(), analyze));
}

}  // namespace
}  // namespace rdfopt
