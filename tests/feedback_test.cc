#include "cost/feedback.h"

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "cost/cardinality.h"
#include "engine/evaluator.h"
#include "engine/operators.h"
#include "engine/plan.h"
#include "engine/planner.h"
#include "rdf/hierarchy_encoding.h"
#include "reformulation/reformulator.h"
#include "service/canonical.h"
#include "service/query_service.h"
#include "sparql/parser.h"
#include "sparql/query.h"
#include "workload/lubm.h"

namespace rdfopt {
namespace {

TriplePattern Atom(PatternTerm s, PatternTerm p, PatternTerm o) {
  return TriplePattern{s, p, o};
}

ConjunctiveQuery TwoAtomCq() {
  // q(x) :- x p y . x q z  (p = 1, q = 2 as constants).
  ConjunctiveQuery cq;
  cq.head = {0};
  cq.atoms.push_back(
      Atom(PatternTerm::Var(0), PatternTerm::Const(1), PatternTerm::Var(1)));
  cq.atoms.push_back(
      Atom(PatternTerm::Var(0), PatternTerm::Const(2), PatternTerm::Var(2)));
  return cq;
}

/// q(x) :- x p y . y p z  and the same chain written backwards with other
/// names: b p c . a p b. Both atoms rank alike, so the key must not depend
/// on which one the input lists first.
std::pair<ConjunctiveQuery, ConjunctiveQuery> SymmetricChains() {
  ConjunctiveQuery forward;
  forward.head = {0};
  forward.atoms.push_back(
      Atom(PatternTerm::Var(0), PatternTerm::Const(5), PatternTerm::Var(1)));
  forward.atoms.push_back(
      Atom(PatternTerm::Var(1), PatternTerm::Const(5), PatternTerm::Var(2)));
  ConjunctiveQuery backward;
  backward.head = {1};
  backward.atoms.push_back(
      Atom(PatternTerm::Var(2), PatternTerm::Const(5), PatternTerm::Var(3)));
  backward.atoms.push_back(
      Atom(PatternTerm::Var(1), PatternTerm::Const(5), PatternTerm::Var(2)));
  return {forward, backward};
}

// FragmentKey (service/canonical.h) is the feedback store's key; these
// cases pin its contract.
TEST(FragmentSignatureTest, InvariantUnderAtomOrderAndRenaming) {
  ConjunctiveQuery a = TwoAtomCq();

  // Same fragment, atoms swapped, variables renamed (x->7, y->3, z->5).
  ConjunctiveQuery b;
  b.head = {7};
  b.atoms.push_back(
      Atom(PatternTerm::Var(7), PatternTerm::Const(2), PatternTerm::Var(5)));
  b.atoms.push_back(
      Atom(PatternTerm::Var(7), PatternTerm::Const(1), PatternTerm::Var(3)));

  EXPECT_EQ(FragmentKey(a), FragmentKey(b));

  const auto [forward, backward] = SymmetricChains();
  EXPECT_EQ(FragmentKey(forward), FragmentKey(backward));
}

TEST(FragmentSignatureTest, HeadIsExcluded) {
  ConjunctiveQuery a = TwoAtomCq();
  ConjunctiveQuery b = TwoAtomCq();
  b.head = {0, 1};  // Different projection, same conjunction body.
  b.head_bindings.emplace_back(3, ValueId{9});
  EXPECT_EQ(FragmentKey(a), FragmentKey(b));

  // The key is the plan-cache key of the bare body.
  ConjunctiveQuery body;
  body.atoms = a.atoms;
  EXPECT_EQ(FragmentKey(a), Canonicalize(body).key);

  auto [forward, backward] = SymmetricChains();
  backward.head = {2, 3};
  EXPECT_EQ(FragmentKey(forward), FragmentKey(backward));
}

TEST(FragmentSignatureTest, ConstantsAndStructureMatter) {
  ConjunctiveQuery a = TwoAtomCq();

  ConjunctiveQuery different_const = TwoAtomCq();
  different_const.atoms[1].p = PatternTerm::Const(3);
  EXPECT_NE(FragmentKey(a), FragmentKey(different_const));

  // Breaking the join (different subject variables) changes the signature.
  ConjunctiveQuery disconnected = TwoAtomCq();
  disconnected.atoms[1].s = PatternTerm::Var(9);
  EXPECT_NE(FragmentKey(a), FragmentKey(disconnected));

  // A chain is not a star over the same predicate.
  auto [chain, star] = SymmetricChains();
  star.atoms[1].s = star.atoms[0].s;
  EXPECT_NE(FragmentKey(chain), FragmentKey(star));
}

TEST(EstimateFeedbackStoreTest, RecordsEwmaOfActuals) {
  EstimateFeedbackStore store;
  ConjunctiveQuery cq = TwoAtomCq();
  EXPECT_FALSE(store.Lookup(cq).has_value());

  store.Record(cq, /*estimated_rows=*/100.0, /*actual_rows=*/10);
  ASSERT_TRUE(store.Lookup(cq).has_value());
  EXPECT_DOUBLE_EQ(*store.Lookup(cq), 10.0);

  // alpha = 0.5: 0.5 * 30 + 0.5 * 10 = 20.
  store.Record(cq, /*estimated_rows=*/100.0, /*actual_rows=*/30);
  EXPECT_DOUBLE_EQ(*store.Lookup(cq), 20.0);
  EXPECT_EQ(store.size(), 1u);
}

TEST(EstimateFeedbackStoreTest, LookupIsAlphaInvariant) {
  EstimateFeedbackStore store;
  ConjunctiveQuery cq = TwoAtomCq();
  store.Record(cq, 100.0, 42);

  // A renamed, reordered variant of the same fragment hits the same entry.
  ConjunctiveQuery renamed;
  renamed.head = {4};
  renamed.atoms.push_back(
      Atom(PatternTerm::Var(4), PatternTerm::Const(2), PatternTerm::Var(6)));
  renamed.atoms.push_back(
      Atom(PatternTerm::Var(4), PatternTerm::Const(1), PatternTerm::Var(8)));
  ASSERT_TRUE(store.Lookup(renamed).has_value());
  EXPECT_DOUBLE_EQ(*store.Lookup(renamed), 42.0);
}

TEST(EstimateFeedbackStoreTest, FifoEvictionBoundsTheStore) {
  EstimateFeedbackStore::Options options;
  options.max_entries = 2;
  EstimateFeedbackStore store(options);

  std::vector<ConjunctiveQuery> cqs;
  for (ValueId p = 1; p <= 3; ++p) {
    ConjunctiveQuery cq;
    cq.head = {0};
    cq.atoms.push_back(Atom(PatternTerm::Var(0), PatternTerm::Const(p),
                            PatternTerm::Var(1)));
    cqs.push_back(cq);
    store.Record(cq, 1.0, 5);
  }
  EXPECT_EQ(store.size(), 2u);
  EXPECT_FALSE(store.Lookup(cqs[0]).has_value());  // Oldest evicted.
  EXPECT_TRUE(store.Lookup(cqs[1]).has_value());
  EXPECT_TRUE(store.Lookup(cqs[2]).has_value());
}

// The shape index counts entries per shape: a chain and a star over one
// predicate share a shape (the shape forgets how atoms share variables) but
// not a key. Evicting one must leave the other findable, and Clear must
// empty the index so a re-recorded fragment is found again.
TEST(EstimateFeedbackStoreTest, ShapeIndexCountsEntriesPerShape) {
  EstimateFeedbackStore::Options options;
  options.max_entries = 2;
  EstimateFeedbackStore store(options);
  ConjunctiveQuery chain = SymmetricChains().first;
  ConjunctiveQuery star = chain;
  star.atoms[1].s = star.atoms[0].s;  // (?0 p ?1), (?0 p ?2).
  ASSERT_NE(FragmentKey(chain), FragmentKey(star));
  ASSERT_EQ(FragmentShape(chain), FragmentShape(star));
  ConjunctiveQuery other = TwoAtomCq();
  ASSERT_NE(FragmentShape(other), FragmentShape(chain));

  store.Record(chain, 1.0, 7);
  store.Record(star, 1.0, 9);
  store.Record(other, 1.0, 11);  // Evicts `chain`.
  EXPECT_FALSE(store.Lookup(chain).has_value());
  ASSERT_TRUE(store.Lookup(star).has_value());
  EXPECT_DOUBLE_EQ(*store.Lookup(star), 9.0);
  ASSERT_TRUE(store.Lookup(other).has_value());

  store.Clear();
  EXPECT_FALSE(store.Lookup(star).has_value());
  store.Record(star, 1.0, 3);
  ASSERT_TRUE(store.Lookup(star).has_value());
  EXPECT_DOUBLE_EQ(*store.Lookup(star), 3.0);
}

TEST(EstimateFeedbackStoreTest, ClearDropsEverything) {
  EstimateFeedbackStore store;
  store.Record(TwoAtomCq(), 10.0, 5);
  EXPECT_EQ(store.size(), 1u);
  store.Clear();
  EXPECT_EQ(store.size(), 0u);
  EXPECT_FALSE(store.Lookup(TwoAtomCq()).has_value());
}

TEST(EstimateFeedbackStoreTest, RecordObservesDriftHistogram) {
  MetricHistogram* drift =
      MetricsRegistry::Global().GetHistogram("cost.estimate_drift");
  const uint64_t before = drift->count();
  EstimateFeedbackStore store;
  // 10x under-estimate: drift ratio ~ (100+1)/(10+1) ~ 9.2.
  store.Record(TwoAtomCq(), /*estimated_rows=*/10.0, /*actual_rows=*/100);
  EXPECT_EQ(drift->count(), before + 1);
  EXPECT_GE(drift->max(), 5.0);
}

/// Skewed star data that breaks the estimator's independence assumption:
/// subject 1000 holds 91 of the 100 p-triples and the only q-triple, so
/// q(x) :- x p y . x q z returns 91 rows while the uniform estimate says
/// ~10. The feedback loop exists exactly for this case.
class FeedbackLoopTest : public ::testing::Test {
 protected:
  void SetUp() override {
    std::vector<Triple> triples;
    for (ValueId i = 0; i < 91; ++i) triples.push_back({1000, 1, 2000 + i});
    for (ValueId j = 1; j <= 9; ++j) triples.push_back({1000 + j, 1, 5000});
    triples.push_back({1000, 2, 3000});
    store_ = TripleStore::Build(std::move(triples));
    stats_ = Statistics::Compute(store_);
    profile_ = PostgresLikeProfile();
  }

  /// The chain root of the single union term: holds the conjunction's
  /// est_rows (and after execution its actual_rows).
  static const PlanNode* ChainRoot(const PhysicalPlan& plan) {
    const PlanNode* dedup = plan.root.get();
    const PlanNode* union_all = dedup->children[0].get();
    return union_all->children[0].get();
  }

  TripleStore store_;
  Statistics stats_;
  EngineProfile profile_;
};

TEST_F(FeedbackLoopTest, SecondPlanningUsesObservedCardinality) {
  CardinalityEstimator estimator(&store_, &stats_);
  EstimateFeedbackStore feedback;
  estimator.set_feedback(&feedback);

  UnionQuery ucq;
  ucq.head = {0};
  ucq.disjuncts.push_back(TwoAtomCq());

  // First planning: no observations yet, the independence estimate (~10)
  // is far from the true 91 rows.
  Planner planner(&estimator, &profile_);
  PhysicalPlan first = planner.PlanUCQ(ucq);
  const double first_estimate = ChainRoot(first)->est_rows;
  EXPECT_NEAR(first_estimate, 10.0, 5.0);

  // Execute with feedback wired: the evaluator records each executed
  // disjunct's (estimate, actual) pair into the store.
  Evaluator evaluator(&store_, &profile_);
  evaluator.set_feedback(&feedback);
  EvalMetrics metrics;
  Result<Relation> result = evaluator.ExecutePlan(&first, &metrics);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(ChainRoot(first)->actual_rows, 91u);
  ASSERT_EQ(feedback.size(), 1u);

  // Second planning of the same fragment: the estimator now returns the
  // observed cardinality instead of re-deriving the misestimate.
  PhysicalPlan second = planner.PlanUCQ(ucq);
  EXPECT_DOUBLE_EQ(ChainRoot(second)->est_rows, 91.0);
  EXPECT_NE(ChainRoot(second)->est_rows, first_estimate);
}

TEST_F(FeedbackLoopTest, FeedbackIsOptIn) {
  // Without set_feedback, recording into a store must not change what a
  // plain estimator derives — paper-reproduction runs stay order-blind.
  CardinalityEstimator estimator(&store_, &stats_);
  const double before = estimator.EstimateCQ(TwoAtomCq());
  EstimateFeedbackStore feedback;
  feedback.Record(TwoAtomCq(), before, 91);
  EXPECT_DOUBLE_EQ(estimator.EstimateCQ(TwoAtomCq()), before);
}

// A collapsed range branch is listed under its representative disjunct but
// returns the rows of the whole hid interval; recording them under the
// representative's key would tell the estimator that one class has the
// whole range's instances.
TEST(FeedbackRangeTest, CollapsedRangeBranchesAreNotRecorded) {
  Graph graph;
  LubmOptions options;
  options.num_universities = 1;
  options.fine_grained_specializations = 48;
  GenerateLubm(options, &graph);
  graph.FinalizeSchema();
  TripleStore store = TripleStore::Build(graph.data_triples());
  store.AttachHierarchy(std::make_shared<const HierarchyEncoding>(
      HierarchyEncoding::Build(graph.schema(), graph.vocab().rdf_type)));
  const Statistics stats = Statistics::Compute(store);

  Result<Query> parsed = ParseQuery(
      "PREFIX ub: <http://lubm.example.org/univ#>\n"
      "SELECT ?x WHERE { ?x a ub:Professor . }",
      &graph.dict());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  Query query = parsed.TakeValue();
  Reformulator reformulator(&graph.schema(), &graph.vocab());
  Result<UnionQuery> ucq = reformulator.ReformulateCQ(query.cq, &query.vars);
  ASSERT_TRUE(ucq.ok()) << ucq.status().ToString();

  EngineProfile profile = Vectorized(PostgresLikeProfile());
  profile.tuple_us_per_row = 0.0;
  profile.union_term_overhead_us = 0.0;
  profile.materialization_us_per_row = 0.0;
  profile.hierarchy_ranges = true;
  CardinalityEstimator estimator(&store, &stats);
  EstimateFeedbackStore feedback;
  estimator.set_feedback(&feedback);
  Planner planner(&estimator, &profile);
  PhysicalPlan plan = planner.PlanUCQ(ucq.ValueOrDie());
  ASSERT_LT(plan.union_terms, ucq.ValueOrDie().size()) << "nothing collapsed";

  Evaluator evaluator(&store, &profile);
  evaluator.set_feedback(&feedback);
  EvalMetrics metrics;
  ASSERT_TRUE(evaluator.ExecutePlan(&plan, &metrics).ok());

  // Every recorded fragment must carry its own row count.
  size_t recorded = 0;
  for (const ConjunctiveQuery& d : ucq.ValueOrDie().disjuncts) {
    std::optional<double> observed = feedback.Lookup(d);
    if (!observed.has_value()) continue;
    ++recorded;
    ASSERT_EQ(d.atoms.size(), 1u);
    EXPECT_DOUBLE_EQ(*observed,
                     static_cast<double>(ScanAtom(store, d.atoms[0]).num_rows()))
        << FragmentKey(d);
  }
  EXPECT_EQ(recorded, feedback.size());
}

TEST(FeedbackServiceTest, ServiceAccumulatesFeedbackAndResetsOnEpoch) {
  Graph graph;
  LubmOptions options;
  options.num_universities = 1;
  GenerateLubm(options, &graph);

  ServiceOptions service_options;
  service_options.enable_feedback = true;
  QueryService service(&graph, PostgresLikeProfile(), service_options);
  EXPECT_EQ(service.feedback_entries(), 0u);

  const char* text =
      "PREFIX ub: <http://lubm.example.org/univ#>\n"
      "SELECT ?x ?d WHERE { ?x ub:worksFor ?d . ?x ub:doctoralDegreeFrom "
      "?u . }";
  Result<ServiceOutcome> first = service.AnswerText(text);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_GT(service.feedback_entries(), 0u);

  // Same query again (cache hit): answers must be identical even though the
  // estimator now sees observed cardinalities.
  Result<ServiceOutcome> second = service.AnswerText(text);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.ValueOrDie().answers.num_rows(),
            first.ValueOrDie().answers.num_rows());

  // An epoch bump swaps in a fresh snapshot with an empty store: stale
  // observations must not steer planning against the new data.
  service.Refresh();
  EXPECT_EQ(service.feedback_entries(), 0u);
}

TEST(FeedbackServiceTest, OnlyFreshPlansRecord) {
  Graph graph;
  LubmOptions options;
  options.num_universities = 1;
  GenerateLubm(options, &graph);
  QueryService service(&graph, PostgresLikeProfile(), ServiceOptions{});
  MetricCounter* records =
      MetricsRegistry::Global().GetCounter("cost.feedback_records");

  const char* text =
      "PREFIX ub: <http://lubm.example.org/univ#>\n"
      "SELECT ?x ?d WHERE { ?x ub:worksFor ?d . ?x ub:doctoralDegreeFrom "
      "?u . }";
  const uint64_t before_miss = records->value();
  Result<ServiceOutcome> miss = service.AnswerText(text);
  ASSERT_TRUE(miss.ok()) << miss.status().ToString();
  ASSERT_FALSE(miss.ValueOrDie().cache_hit);
  const uint64_t after_miss = records->value();
  EXPECT_GT(after_miss, before_miss);

  // A hit reruns the cached plan on the same snapshot, whose store already
  // holds the miss's observations: nothing new to record.
  Result<ServiceOutcome> hit = service.AnswerText(text);
  ASSERT_TRUE(hit.ok()) << hit.status().ToString();
  ASSERT_TRUE(hit.ValueOrDie().cache_hit);
  EXPECT_EQ(records->value(), after_miss);
}

// A component served from a view at execution time keeps its union in the
// plan, but the union never runs: RecordPlanFeedback must skip its
// unexecuted disjuncts rather than record them as zero-row observations.
TEST(FeedbackServiceTest, ViewServedComponentsRecordNothing) {
  Graph graph;
  LubmOptions options;
  options.num_universities = 1;
  GenerateLubm(options, &graph);
  ServiceOptions service_options;
  service_options.answer.strategy = Strategy::kScq;
  service_options.enable_views = true;
  QueryService service(&graph, PostgresLikeProfile(), service_options);
  MetricCounter* records =
      MetricsRegistry::Global().GetCounter("cost.feedback_records");

  // The first query harvests its `?x a ub:Professor` component; the second
  // is a different query (a plan-cache miss) with the same component.
  ASSERT_TRUE(service
                  .AnswerText("PREFIX ub: <http://lubm.example.org/univ#>\n"
                              "SELECT ?x ?d WHERE { ?x a ub:Professor . "
                              "?x ub:worksFor ?d . }")
                  .ok());
  const uint64_t before = records->value();
  Result<ServiceOutcome> miss =
      service.AnswerText("PREFIX ub: <http://lubm.example.org/univ#>\n"
                         "SELECT ?x ?c WHERE { ?x a ub:Professor . "
                         "?x ub:teacherOf ?c . }");
  ASSERT_TRUE(miss.ok()) << miss.status().ToString();
  const ServiceOutcome& outcome = miss.ValueOrDie();
  ASSERT_FALSE(outcome.cache_hit);
  ASSERT_GT(outcome.eval.view_hits, 0u) << "no component was served";
  // One observation per executed disjunct, none for the served union.
  EXPECT_EQ(records->value() - before, outcome.eval.union_terms);
}

}  // namespace
}  // namespace rdfopt
