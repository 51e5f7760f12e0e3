#include "optimizer/answering.h"

#include <set>

#include <gtest/gtest.h>

#include "sparql/parser.h"
#include "workload/lubm.h"
#include "workload/query_sets.h"

namespace rdfopt {
namespace {

// Shared fixture: one small LUBM database + saturation, reused across tests.
class AnsweringTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    graph_ = new Graph();
    LubmOptions options;
    options.num_universities = 1;
    GenerateLubm(options, graph_);
    graph_->FinalizeSchema();
    store_ = new TripleStore(TripleStore::Build(graph_->data_triples()));
    SaturationResult sat =
        Saturate(*store_, graph_->schema(), graph_->vocab());
    saturated_ = new TripleStore(std::move(sat.store));
    stats_ = new Statistics(Statistics::Compute(*store_));
    profile_ = new EngineProfile(PostgresLikeProfile());
    answerer_ = new QueryAnswerer(store_, saturated_, &graph_->schema(),
                                  &graph_->vocab(), stats_, profile_);
  }

  Query MustParse(const std::string& text) {
    Result<Query> q = ParseQuery(text, &graph_->dict());
    EXPECT_TRUE(q.ok()) << q.status().ToString();
    return q.TakeValue();
  }

  std::set<std::vector<ValueId>> RowSet(const Relation& r) {
    std::set<std::vector<ValueId>> rows;
    for (size_t i = 0; i < r.num_rows(); ++i) {
      rows.insert(std::vector<ValueId>(r.row(i).begin(), r.row(i).end()));
    }
    return rows;
  }

  static Graph* graph_;
  static TripleStore* store_;
  static TripleStore* saturated_;
  static Statistics* stats_;
  static EngineProfile* profile_;
  static QueryAnswerer* answerer_;
};

Graph* AnsweringTest::graph_ = nullptr;
TripleStore* AnsweringTest::store_ = nullptr;
TripleStore* AnsweringTest::saturated_ = nullptr;
Statistics* AnsweringTest::stats_ = nullptr;
EngineProfile* AnsweringTest::profile_ = nullptr;
QueryAnswerer* AnsweringTest::answerer_ = nullptr;

TEST_F(AnsweringTest, AllStrategiesAgreeOnMotivatingQ1) {
  Query q = MustParse(LubmMotivatingQ1().text);
  std::set<std::vector<ValueId>> reference;
  bool have_reference = false;
  for (Strategy s : {Strategy::kSaturation, Strategy::kUcq, Strategy::kScq,
                     Strategy::kEcov, Strategy::kGcov}) {
    AnswerOptions options;
    options.strategy = s;
    Result<AnswerOutcome> r = answerer_->Answer(q, options);
    ASSERT_TRUE(r.ok()) << StrategyName(s) << ": " << r.status().ToString();
    std::set<std::vector<ValueId>> rows = RowSet(r.ValueOrDie().answers);
    if (!have_reference) {
      reference = rows;
      have_reference = true;
      EXPECT_FALSE(reference.empty());
    } else {
      EXPECT_EQ(rows, reference) << StrategyName(s);
    }
  }
}

TEST_F(AnsweringTest, ReformulationFindsImplicitAnswers) {
  // Members of dept0 include undergrads asserted via memberOf and faculty
  // asserted only via worksFor (a subproperty): reformulation must see both.
  Query q = MustParse(
      "PREFIX ub: <http://lubm.example.org/univ#>\n"
      "SELECT ?x WHERE { ?x ub:memberOf "
      "<http://lubm.example.org/data/univ0/dept0> . }");
  AnswerOptions direct;
  direct.strategy = Strategy::kUcq;
  Result<AnswerOutcome> full = answerer_->Answer(q, direct);
  ASSERT_TRUE(full.ok());

  // Direct evaluation on the non-saturated store misses the implicit part.
  EngineProfile profile = PostgresLikeProfile();
  Evaluator raw(store_, &profile);
  Result<Relation> direct_rows = raw.EvaluateCQ(q.cq, nullptr);
  ASSERT_TRUE(direct_rows.ok());
  EXPECT_GT(full.ValueOrDie().answers.num_rows(),
            direct_rows.ValueOrDie().num_rows());
}

TEST_F(AnsweringTest, UcqStrategyUsesSingleComponent) {
  Query q = MustParse(LubmMotivatingQ1().text);
  AnswerOptions options;
  options.strategy = Strategy::kUcq;
  Result<AnswerOutcome> r = answerer_->Answer(q, options);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.ValueOrDie().num_components, 1u);
  EXPECT_EQ(r.ValueOrDie().chosen_cover.fragments.size(), 1u);
  // Q07's UCQ reformulation is the product of the per-atom counts.
  EXPECT_GT(r.ValueOrDie().union_terms, 1000u);
}

TEST_F(AnsweringTest, ScqStrategyUsesOneComponentPerAtom) {
  Query q = MustParse(LubmMotivatingQ1().text);
  AnswerOptions options;
  options.strategy = Strategy::kScq;
  Result<AnswerOutcome> r = answerer_->Answer(q, options);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.ValueOrDie().num_components, q.cq.atoms.size());
}

TEST_F(AnsweringTest, GcovProducesValidCoverAndMetrics) {
  Query q = MustParse(LubmMotivatingQ1().text);
  AnswerOptions options;
  options.strategy = Strategy::kGcov;
  Result<AnswerOutcome> r = answerer_->Answer(q, options);
  ASSERT_TRUE(r.ok());
  const AnswerOutcome& o = r.ValueOrDie();
  EXPECT_TRUE(ValidateCover(q.cq, o.chosen_cover).ok());
  EXPECT_GT(o.covers_examined, 0u);
  EXPECT_GE(o.optimize_ms, 0.0);
  EXPECT_GT(o.union_terms, 0u);
}

// BGPs of 64 atoms and more: the oracle's fragment cache once keyed
// fragments by a 64-bit atom mask, so atom 64 aliased atom 0 and the
// singleton cover priced and evaluated GraduateStudent in place of
// UndergraduateStudent. No student is both, so every strategy must return
// no rows, like saturation.
TEST_F(AnsweringTest, WideBgpMatchesSaturation) {
  for (size_t atoms : {63, 64, 65}) {
    std::string text =
        "PREFIX ub: <http://lubm.example.org/univ#> "
        "SELECT ?x WHERE { ?x rdf:type ub:GraduateStudent . ";
    for (size_t k = 0; k + 2 < atoms; ++k) {
      text += "?x ub:advisor ?a" + std::to_string(k) + " . ";
    }
    text += "?x rdf:type ub:UndergraduateStudent . }";
    Query q = MustParse(text);
    ASSERT_EQ(q.cq.atoms.size(), atoms);
    AnswerOptions saturation;
    saturation.strategy = Strategy::kSaturation;
    Result<AnswerOutcome> reference = answerer_->Answer(q, saturation);
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();
    for (Strategy s : {Strategy::kUcq, Strategy::kScq, Strategy::kGcov}) {
      AnswerOptions options;
      options.strategy = s;
      // GCov is anytime; its first round of moves already prices thousands
      // of covers of a 65-atom star, and any cover it stops at must answer
      // like saturation.
      options.optimizer_time_budget_s = 0.0;
      Result<AnswerOutcome> r = answerer_->Answer(q, options);
      ASSERT_TRUE(r.ok()) << atoms << " atoms, " << StrategyName(s) << ": "
                          << r.status().ToString();
      EXPECT_EQ(RowSet(r.ValueOrDie().answers),
                RowSet(reference.ValueOrDie().answers))
          << atoms << " atoms, " << StrategyName(s);
    }
  }
}

TEST_F(AnsweringTest, UcqFailsOnHugeReformulationGcovSurvives) {
  // Q28 (the paper's q2): its UCQ reformulation exceeds every profile's
  // plan limit, while GCov picks an evaluable JUCQ.
  Query q = MustParse(LubmMotivatingQ2().text);
  AnswerOptions ucq;
  ucq.strategy = Strategy::kUcq;
  Result<AnswerOutcome> r_ucq = answerer_->Answer(q, ucq);
  ASSERT_FALSE(r_ucq.ok());
  EXPECT_EQ(r_ucq.status().code(), StatusCode::kQueryTooComplex);

  AnswerOptions gcov;
  gcov.strategy = Strategy::kGcov;
  Result<AnswerOutcome> r_gcov = answerer_->Answer(q, gcov);
  ASSERT_TRUE(r_gcov.ok()) << r_gcov.status().ToString();

  AnswerOptions sat;
  sat.strategy = Strategy::kSaturation;
  Result<AnswerOutcome> r_sat = answerer_->Answer(q, sat);
  ASSERT_TRUE(r_sat.ok());
  EXPECT_EQ(RowSet(r_gcov.ValueOrDie().answers),
            RowSet(r_sat.ValueOrDie().answers));
}

TEST_F(AnsweringTest, SaturationRequiresSaturatedStore) {
  QueryAnswerer no_sat(store_, nullptr, &graph_->schema(), &graph_->vocab(),
                       stats_, profile_);
  Query q = MustParse(LubmMotivatingQ1().text);
  AnswerOptions options;
  options.strategy = Strategy::kSaturation;
  Result<AnswerOutcome> r = no_sat.Answer(q, options);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(AnsweringTest, DisconnectedQueryRejectedForCoverStrategies) {
  Query q = MustParse(
      "PREFIX ub: <http://lubm.example.org/univ#>\n"
      "SELECT ?x ?y WHERE { ?x ub:memberOf ?d . ?y ub:teacherOf ?c . }");
  AnswerOptions options;
  options.strategy = Strategy::kGcov;
  Result<AnswerOutcome> r = answerer_->Answer(q, options);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(AnsweringTest, EngineCostModelModeWorks) {
  Query q = MustParse(LubmMotivatingQ1().text);
  AnswerOptions options;
  options.strategy = Strategy::kGcov;
  options.use_engine_cost_model = true;
  Result<AnswerOutcome> r = answerer_->Answer(q, options);
  ASSERT_TRUE(r.ok()) << r.status().ToString();

  AnswerOptions sat;
  sat.strategy = Strategy::kSaturation;
  Result<AnswerOutcome> r_sat = answerer_->Answer(q, sat);
  ASSERT_TRUE(r_sat.ok());
  EXPECT_EQ(RowSet(r.ValueOrDie().answers),
            RowSet(r_sat.ValueOrDie().answers));
}

TEST_F(AnsweringTest, PruningDropsEmptyDisjunctsAndPreservesAnswers) {
  Query q = MustParse(LubmMotivatingQ1().text);
  AnswerOptions plain;
  plain.strategy = Strategy::kUcq;
  Result<AnswerOutcome> r_plain = answerer_->Answer(q, plain);
  ASSERT_TRUE(r_plain.ok());

  AnswerOptions pruned = plain;
  pruned.prune_empty_disjuncts = true;
  Result<AnswerOutcome> r_pruned = answerer_->Answer(q, pruned);
  ASSERT_TRUE(r_pruned.ok());

  EXPECT_GT(r_pruned.ValueOrDie().pruned_union_terms, 0u);
  EXPECT_LT(r_pruned.ValueOrDie().union_terms,
            r_plain.ValueOrDie().union_terms);
  EXPECT_EQ(RowSet(r_pruned.ValueOrDie().answers),
            RowSet(r_plain.ValueOrDie().answers));
}

TEST_F(AnsweringTest, MinimizationRemovesRedundantAtomKeepsAnswers) {
  // takesCourse's domain is Student: the type atom is redundant.
  Query q = MustParse(
      "PREFIX ub: <http://lubm.example.org/univ#>\n"
      "SELECT ?x WHERE { ?x rdf:type ub:Student . ?x ub:takesCourse ?c . }");
  AnswerOptions plain;
  plain.strategy = Strategy::kGcov;
  Result<AnswerOutcome> r_plain = answerer_->Answer(q, plain);
  ASSERT_TRUE(r_plain.ok());

  AnswerOptions minimized = plain;
  minimized.minimize_query = true;
  Result<AnswerOutcome> r_min = answerer_->Answer(q, minimized);
  ASSERT_TRUE(r_min.ok());
  EXPECT_EQ(r_min.ValueOrDie().minimized_atoms, 1u);
  EXPECT_EQ(RowSet(r_min.ValueOrDie().answers),
            RowSet(r_plain.ValueOrDie().answers));
  // The minimized query reformulates to fewer union terms.
  EXPECT_LE(r_min.ValueOrDie().union_terms,
            r_plain.ValueOrDie().union_terms);
}

TEST_F(AnsweringTest, LiteralScanSumAblationStillCorrect) {
  Query q = MustParse(LubmMotivatingQ1().text);
  AnswerOptions options;
  options.strategy = Strategy::kGcov;
  options.literal_scan_sums = true;
  Result<AnswerOutcome> r = answerer_->Answer(q, options);
  ASSERT_TRUE(r.ok()) << r.status().ToString();

  AnswerOptions sat;
  sat.strategy = Strategy::kSaturation;
  Result<AnswerOutcome> truth = answerer_->Answer(q, sat);
  ASSERT_TRUE(truth.ok());
  EXPECT_EQ(RowSet(r.ValueOrDie().answers),
            RowSet(truth.ValueOrDie().answers));
}

TEST_F(AnsweringTest, KeepReformulationExposesTheJucq) {
  Query q = MustParse(LubmMotivatingQ1().text);
  AnswerOptions options;
  options.strategy = Strategy::kGcov;
  options.keep_reformulation = true;
  Result<AnswerOutcome> r = answerer_->Answer(q, options);
  ASSERT_TRUE(r.ok());
  const AnswerOutcome& o = r.ValueOrDie();
  ASSERT_TRUE(o.jucq.has_value());
  ASSERT_TRUE(o.jucq_vars.has_value());
  EXPECT_EQ(o.jucq->components.size(), o.num_components);
  size_t terms = 0;
  for (const UnionQuery& c : o.jucq->components) terms += c.size();
  EXPECT_EQ(terms, o.union_terms);
  // Without the flag the outcome stays lean.
  options.keep_reformulation = false;
  Result<AnswerOutcome> r2 = answerer_->Answer(q, options);
  ASSERT_TRUE(r2.ok());
  EXPECT_FALSE(r2.ValueOrDie().jucq.has_value());
}

TEST_F(AnsweringTest, SubsumptionPruningPreservesAnswers) {
  Query q = MustParse(
      "PREFIX ub: <http://lubm.example.org/univ#>\n"
      "SELECT ?x ?y WHERE { ?x rdf:type ?y . ?x ub:headOf ?d . }");
  AnswerOptions plain;
  plain.strategy = Strategy::kUcq;
  Result<AnswerOutcome> a = answerer_->Answer(q, plain);
  ASSERT_TRUE(a.ok());
  AnswerOptions pruned = plain;
  pruned.prune_subsumed_disjuncts = true;
  Result<AnswerOutcome> b = answerer_->Answer(q, pruned);
  ASSERT_TRUE(b.ok());
  EXPECT_LT(b.ValueOrDie().union_terms, a.ValueOrDie().union_terms);
  EXPECT_GT(b.ValueOrDie().pruned_union_terms, 0u);
  EXPECT_EQ(RowSet(b.ValueOrDie().answers), RowSet(a.ValueOrDie().answers));
}

TEST_F(AnsweringTest, StrategyNames) {
  EXPECT_EQ(StrategyName(Strategy::kUcq), "UCQ");
  EXPECT_EQ(StrategyName(Strategy::kScq), "SCQ");
  EXPECT_EQ(StrategyName(Strategy::kEcov), "ECov");
  EXPECT_EQ(StrategyName(Strategy::kGcov), "GCov");
  EXPECT_EQ(StrategyName(Strategy::kSaturation), "Saturation");
}

}  // namespace
}  // namespace rdfopt
