#include "cost/cardinality.h"

#include <algorithm>
#include <unordered_map>

#include <gtest/gtest.h>

#include "engine/evaluator.h"
#include "engine/planner.h"
#include "rdf/graph.h"
#include "reformulation/reformulator.h"
#include "sparql/parser.h"
#include "workload/lubm.h"
#include "workload/query_sets.h"

namespace rdfopt {
namespace {

class CardinalityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Star-shaped data: 100 subjects with p, 10 of them with q.
    std::vector<Triple> triples;
    for (ValueId i = 0; i < 100; ++i) {
      triples.push_back({1000 + i, 1, 2000 + i % 10});
    }
    for (ValueId i = 0; i < 10; ++i) {
      triples.push_back({1000 + i, 2, 3000});
    }
    store_ = TripleStore::Build(std::move(triples));
    stats_ = Statistics::Compute(store_);
    estimator_.emplace(&store_, &stats_);
  }

  TriplePattern Atom(PatternTerm s, PatternTerm p, PatternTerm o) {
    return TriplePattern{s, p, o};
  }

  TripleStore store_;
  Statistics stats_;
  std::optional<CardinalityEstimator> estimator_;
};

TEST_F(CardinalityTest, SinglePatternIsExact) {
  EXPECT_DOUBLE_EQ(estimator_->EstimateAtom(Atom(
                       PatternTerm::Var(0), PatternTerm::Const(1),
                       PatternTerm::Var(1))),
                   100.0);
  EXPECT_DOUBLE_EQ(estimator_->EstimateAtom(Atom(
                       PatternTerm::Var(0), PatternTerm::Const(2),
                       PatternTerm::Var(1))),
                   10.0);
  EXPECT_DOUBLE_EQ(estimator_->EstimateAtom(Atom(
                       PatternTerm::Var(0), PatternTerm::Const(1),
                       PatternTerm::Const(2000))),
                   10.0);
  EXPECT_DOUBLE_EQ(estimator_->EstimateAtom(Atom(
                       PatternTerm::Var(0), PatternTerm::Var(1),
                       PatternTerm::Var(2))),
                   110.0);
}

TEST_F(CardinalityTest, DistinctEstimates) {
  TriplePattern p_scan =
      Atom(PatternTerm::Var(0), PatternTerm::Const(1), PatternTerm::Var(1));
  EXPECT_DOUBLE_EQ(estimator_->EstimateDistinct(p_scan, 0), 100.0);
  EXPECT_DOUBLE_EQ(estimator_->EstimateDistinct(p_scan, 1), 10.0);
  // A variable not in the atom has one "distinct value" (no constraint).
  EXPECT_DOUBLE_EQ(estimator_->EstimateDistinct(p_scan, 9), 1.0);
}

TEST_F(CardinalityTest, JoinEstimateUsesIndependence) {
  // p(x, y) join q(x, z): 100 * 10 / max distinct x (100) = 10.
  ConjunctiveQuery cq;
  cq.atoms.push_back(
      Atom(PatternTerm::Var(0), PatternTerm::Const(1), PatternTerm::Var(1)));
  cq.atoms.push_back(
      Atom(PatternTerm::Var(0), PatternTerm::Const(2), PatternTerm::Var(2)));
  EXPECT_NEAR(estimator_->EstimateCQ(cq), 10.0, 1e-9);
}

TEST_F(CardinalityTest, EmptyAtomGivesZero) {
  ConjunctiveQuery cq;
  cq.atoms.push_back(
      Atom(PatternTerm::Var(0), PatternTerm::Const(99), PatternTerm::Var(1)));
  cq.atoms.push_back(
      Atom(PatternTerm::Var(0), PatternTerm::Const(1), PatternTerm::Var(2)));
  EXPECT_DOUBLE_EQ(estimator_->EstimateCQ(cq), 0.0);
}

TEST_F(CardinalityTest, UcqSumsDisjuncts) {
  UnionQuery ucq;
  ConjunctiveQuery cq;
  cq.atoms.push_back(
      Atom(PatternTerm::Var(0), PatternTerm::Const(2), PatternTerm::Var(1)));
  ucq.disjuncts.push_back(cq);
  ucq.disjuncts.push_back(cq);
  EXPECT_DOUBLE_EQ(estimator_->EstimateUCQ(ucq), 20.0);
}

TEST_F(CardinalityTest, JoinOfEstimatedInputs) {
  // Two inputs of 100 and 10 rows sharing column 0.
  double est = estimator_->EstimateJoin(
      {{100.0, {0, 1}}, {10.0, {0, 2}}});
  EXPECT_NEAR(est, 10.0, 1e-9);
  // Disjoint columns: cartesian product.
  double cart = estimator_->EstimateJoin({{100.0, {0}}, {10.0, {1}}});
  EXPECT_NEAR(cart, 1000.0, 1e-9);
}

TEST_F(CardinalityTest, PlanWorkOfSingleAtomIsItsScan) {
  ConjunctiveQuery cq;
  cq.atoms.push_back(
      Atom(PatternTerm::Var(0), PatternTerm::Const(1), PatternTerm::Var(1)));
  EXPECT_DOUBLE_EQ(estimator_->EstimateCqPlanWork(cq), 100.0);
}

TEST_F(CardinalityTest, PlanWorkStartsFromTheSmallestAtom) {
  // q(x) :- x p y . x q z: the plan scans q (10 rows), probes p.
  // work = 10 (scan) + 10 (probe drivers) + est output.
  ConjunctiveQuery cq;
  cq.atoms.push_back(
      Atom(PatternTerm::Var(0), PatternTerm::Const(1), PatternTerm::Var(1)));
  cq.atoms.push_back(
      Atom(PatternTerm::Var(0), PatternTerm::Const(2), PatternTerm::Var(2)));
  double out = estimator_->EstimateCQ(cq);  // ~10.
  EXPECT_DOUBLE_EQ(estimator_->EstimateCqPlanWork(cq), 10.0 + 10.0 + out);
  // Far below the literal per-triple sum (110).
  EXPECT_LT(estimator_->EstimateCqPlanWork(cq), 110.0);
}

TEST_F(CardinalityTest, PlanWorkOfEmptyQueryIsZero) {
  ConjunctiveQuery cq;
  EXPECT_DOUBLE_EQ(estimator_->EstimateCqPlanWork(cq), 0.0);
}

TEST_F(CardinalityTest, PlanWorkZeroWhenFirstAtomEmpty) {
  ConjunctiveQuery cq;
  cq.atoms.push_back(
      Atom(PatternTerm::Var(0), PatternTerm::Const(99), PatternTerm::Var(1)));
  cq.atoms.push_back(
      Atom(PatternTerm::Var(0), PatternTerm::Const(1), PatternTerm::Var(2)));
  EXPECT_DOUBLE_EQ(estimator_->EstimateCqPlanWork(cq), 0.0);
}

// On generated data, CQ estimates should stay within a couple of orders of
// magnitude of the true result (sanity envelope, not precision).
TEST(CardinalityLubmTest, EstimatesWithinEnvelope) {
  Graph g;
  LubmOptions options;
  options.num_universities = 1;
  GenerateLubm(options, &g);
  g.FinalizeSchema();
  TripleStore store = TripleStore::Build(g.data_triples());
  Statistics stats = Statistics::Compute(store);
  CardinalityEstimator estimator(&store, &stats);
  EngineProfile profile = PostgresLikeProfile();
  Evaluator evaluator(&store, &profile);

  const char* queries[] = {
      "PREFIX ub: <http://lubm.example.org/univ#>\n"
      "SELECT ?x ?y WHERE { ?x ub:takesCourse ?y . }",
      "PREFIX ub: <http://lubm.example.org/univ#>\n"
      "SELECT ?x ?y ?c WHERE { ?x ub:advisor ?y . ?y ub:teacherOf ?c . }",
      "PREFIX ub: <http://lubm.example.org/univ#>\n"
      "SELECT ?x ?d WHERE { ?x ub:worksFor ?d . ?x ub:doctoralDegreeFrom "
      "?u . }",
  };
  for (const char* text : queries) {
    Result<Query> q = ParseQuery(text, &g.dict());
    ASSERT_TRUE(q.ok());
    ConjunctiveQuery body = q.ValueOrDie().cq;
    body.head = body.AllVariables();  // No projection: compare raw rows.
    Result<Relation> r = evaluator.EvaluateCQ(body, nullptr);
    ASSERT_TRUE(r.ok());
    double actual = static_cast<double>(r.ValueOrDie().num_rows());
    double estimate = estimator.EstimateCQ(q.ValueOrDie().cq);
    if (actual > 0) {
      EXPECT_LT(estimate / actual, 100.0) << text;
      EXPECT_GT(estimate / actual, 0.01) << text;
    }
  }
}

/// The System-R estimate as EstimateCQ computed it before it was built atom
/// by atom: every EstimateDistinct re-counts its atom, and the divisions run
/// over a std::unordered_map. `distinct_divisors` reports whether two
/// dividing variables divided by different values (the order-sensitive
/// case).
double ReferenceEstimateCQ(const CardinalityEstimator& estimator,
                           const ConjunctiveQuery& cq,
                           bool* distinct_divisors = nullptr) {
  double product = 1.0;
  std::unordered_map<VarId, std::pair<int, double>> vars;
  for (const TriplePattern& atom : cq.atoms) {
    product *= estimator.EstimateAtom(atom);
    std::vector<VarId> atom_vars;
    atom.AppendVariables(&atom_vars);
    std::sort(atom_vars.begin(), atom_vars.end());
    atom_vars.erase(std::unique(atom_vars.begin(), atom_vars.end()),
                    atom_vars.end());
    for (VarId v : atom_vars) {
      double d = estimator.EstimateDistinct(atom, v);
      auto& [count, max_d] = vars[v];
      ++count;
      max_d = std::max(max_d, d);
    }
  }
  if (distinct_divisors != nullptr) {
    double first = 0.0;
    for (const auto& [v, info] : vars) {
      if (info.first < 2) continue;
      const double d = std::max(1.0, info.second);
      if (first == 0.0) first = d;
      if (d != first) *distinct_divisors = true;
    }
  }
  if (product == 0.0) return 0.0;
  for (const auto& [v, info] : vars) {
    const auto& [count, max_d] = info;
    for (int i = 1; i < count; ++i) product /= std::max(1.0, max_d);
  }
  return product;
}

/// EstimateCqPlanWork as it was: every prefix re-estimated from scratch.
double ReferencePlanWork(const CardinalityEstimator& estimator,
                         const ConjunctiveQuery& cq) {
  if (cq.atoms.empty()) return 0.0;
  std::vector<double> cards;
  for (const TriplePattern& atom : cq.atoms) {
    cards.push_back(estimator.EstimateAtom(atom));
  }
  const std::vector<size_t> order = GreedyAtomOrder(cq.atoms, cards);
  double work = cards[order[0]];
  double inter = cards[order[0]];
  ConjunctiveQuery prefix;
  prefix.atoms.push_back(cq.atoms[order[0]]);
  for (size_t step = 1; step < cq.atoms.size(); ++step) {
    prefix.atoms.push_back(cq.atoms[order[step]]);
    double out = ReferenceEstimateCQ(estimator, prefix);
    work += inter + out;
    inter = out;
  }
  return work;
}

// The one-pass, memoized estimates cover search prices with are the same
// doubles as the historical per-call formulas, on every disjunct of every
// LUBM query's reformulation — including disjuncts whose join variables
// divide by different values, where the division order shows in the bits.
TEST(CardinalityLubmTest, OnePassEstimatesMatchReferenceBitForBit) {
  Graph g;
  LubmOptions options;
  options.num_universities = 1;
  GenerateLubm(options, &g);
  g.FinalizeSchema();
  TripleStore store = TripleStore::Build(g.data_triples());
  Statistics stats = Statistics::Compute(store);
  CardinalityEstimator estimator(&store, &stats);
  Reformulator reformulator(&g.schema(), &g.vocab());
  AtomStatistics memo(&estimator);
  size_t disjuncts = 0;
  size_t order_sensitive = 0;
  for (const BenchmarkQuery& bq : LubmQuerySet()) {
    Result<Query> q = ParseQuery(bq.text, &g.dict());
    ASSERT_TRUE(q.ok()) << bq.name;
    Query query = q.TakeValue();
    Result<UnionQuery> ucq =
        reformulator.ReformulateCQ(query.cq, &query.vars, 4096);
    if (!ucq.ok()) continue;
    for (const ConjunctiveQuery& cq : ucq.ValueOrDie().disjuncts) {
      ++disjuncts;
      bool distinct_divisors = false;
      const double rows = ReferenceEstimateCQ(estimator, cq,
                                              &distinct_divisors);
      if (distinct_divisors) ++order_sensitive;
      const double work = ReferencePlanWork(estimator, cq);
      const CardinalityEstimator::DisjunctEstimate one_pass =
          estimator.EstimateDisjunct(cq, &memo);
      EXPECT_EQ(one_pass.rows, rows) << bq.name;
      EXPECT_EQ(one_pass.plan_work, work) << bq.name;
      EXPECT_EQ(estimator.EstimateCQ(cq), rows) << bq.name;
      EXPECT_EQ(estimator.EstimateCqPlanWork(cq), work) << bq.name;
    }
  }
  EXPECT_GT(disjuncts, 1000u);
  EXPECT_GT(order_sensitive, 0u) << "no disjunct exercised the division order";
  // One store count per distinct atom pattern, not per disjunct atom.
  EXPECT_LT(memo.store_counts(), disjuncts);
}

}  // namespace
}  // namespace rdfopt
