#include "service/query_service.h"

#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "common/trace.h"
#include "engine/evaluator.h"
#include "reasoner/saturation.h"
#include "service/admission.h"
#include "service/canonical.h"
#include "service/query_cache.h"
#include "sparql/parser.h"
#include "workload/lubm.h"
#include "workload/query_sets.h"

namespace rdfopt {
namespace {

std::set<std::vector<ValueId>> RowSet(const Relation& r) {
  std::set<std::vector<ValueId>> rows;
  for (size_t i = 0; i < r.num_rows(); ++i) {
    rows.insert(std::vector<ValueId>(r.row(i).begin(), r.row(i).end()));
  }
  return rows;
}

// ---------------------------------------------------------------------------
// Canonicalization
// ---------------------------------------------------------------------------

class ServiceCanonicalTest : public ::testing::Test {
 protected:
  std::string KeyOf(const std::string& text) {
    Result<Query> q = ParseQuery(text, &graph_.dict());
    EXPECT_TRUE(q.ok()) << q.status().ToString();
    return Canonicalize(q.ValueOrDie().cq).key;
  }

  Graph graph_;
};

TEST_F(ServiceCanonicalTest, AlphaEquivalentQueriesShareKey) {
  std::string a =
      "SELECT ?x WHERE { ?x <http://ex/p> ?y . ?y <http://ex/q> ?z }";
  std::string b =
      "SELECT ?u WHERE { ?u <http://ex/p> ?v . ?v <http://ex/q> ?w }";
  EXPECT_EQ(KeyOf(a), KeyOf(b));
}

TEST_F(ServiceCanonicalTest, AtomPermutationSharesKey) {
  std::string a =
      "SELECT ?x WHERE { ?x <http://ex/p> ?y . ?y <http://ex/q> ?z }";
  std::string b =
      "SELECT ?x WHERE { ?y <http://ex/q> ?z . ?x <http://ex/p> ?y }";
  EXPECT_EQ(KeyOf(a), KeyOf(b));
}

TEST_F(ServiceCanonicalTest, RepeatedVariableIsDistinguished) {
  EXPECT_NE(KeyOf("SELECT ?x WHERE { ?x <http://ex/p> ?x }"),
            KeyOf("SELECT ?x WHERE { ?x <http://ex/p> ?y }"));
}

TEST_F(ServiceCanonicalTest, HeadOrderIsSignificant) {
  EXPECT_NE(KeyOf("SELECT ?x ?y WHERE { ?x <http://ex/p> ?y }"),
            KeyOf("SELECT ?y ?x WHERE { ?x <http://ex/p> ?y }"));
}

TEST_F(ServiceCanonicalTest, DifferentConstantsDiffer) {
  EXPECT_NE(KeyOf("SELECT ?x WHERE { ?x <http://ex/p> ?y }"),
            KeyOf("SELECT ?x WHERE { ?x <http://ex/q> ?y }"));
}

// The hard case for greedy labeling: a headless symmetric chain, where the
// first atom choice is a tie resolved by comparing full completions.
TEST_F(ServiceCanonicalTest, HeadlessChainPermutationsShareKey) {
  std::string a = "ASK WHERE { ?x <http://ex/p> ?y . ?y <http://ex/p> ?z }";
  std::string b = "ASK WHERE { ?b <http://ex/p> ?c . ?a <http://ex/p> ?b }";
  EXPECT_EQ(KeyOf(a), KeyOf(b));
}

TEST_F(ServiceCanonicalTest, CanonicalQueryIsAnswerableForm) {
  Result<Query> q = ParseQuery(
      "SELECT ?n ?m WHERE { ?n <http://ex/p> ?m . ?m <http://ex/q> ?k }",
      &graph_.dict());
  ASSERT_TRUE(q.ok());
  CanonicalizedQuery canonical = Canonicalize(q.ValueOrDie().cq);
  // Head variables get the first canonical ids, in head order.
  ASSERT_EQ(canonical.query.cq.head.size(), 2u);
  EXPECT_EQ(canonical.query.cq.head[0], 0u);
  EXPECT_EQ(canonical.query.cq.head[1], 1u);
  // Every variable has a synthesized name in the canonical VarTable.
  EXPECT_EQ(canonical.query.vars.size(), 3u);
  EXPECT_EQ(canonical.query.vars.name(0), "c0");
}

// ---------------------------------------------------------------------------
// Plan cache
// ---------------------------------------------------------------------------

std::shared_ptr<CachedPlanEntry> MakeEntry(Epoch epoch, size_t bytes) {
  auto entry = std::make_shared<CachedPlanEntry>();
  entry->epoch = epoch;
  entry->bytes = bytes;
  return entry;
}

TEST(ServicePlanCacheTest, GetReturnsWhatPutStored) {
  QueryPlanCache cache(1 << 20);
  cache.Put("k", MakeEntry(0, 100), 0);
  EXPECT_NE(cache.Get("k", 0), nullptr);
  EXPECT_EQ(cache.Get("absent", 0), nullptr);
  QueryPlanCache::Stats s = cache.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.entries, 1u);
}

TEST(ServicePlanCacheTest, EpochIsPartOfTheKey) {
  QueryPlanCache cache(1 << 20);
  cache.Put("k", MakeEntry(0, 100), 0);
  EXPECT_EQ(cache.Get("k", 1), nullptr);  // Stale epoch: unreachable.
  EXPECT_NE(cache.Get("k", 0), nullptr);
}

TEST(ServicePlanCacheTest, StalePutIsDropped) {
  QueryPlanCache cache(1 << 20);
  // The inserting query pinned epoch 0 but an update moved the world to 1.
  cache.Put("k", MakeEntry(0, 100), 1);
  EXPECT_EQ(cache.Get("k", 0), nullptr);
  EXPECT_EQ(cache.stats().stale_puts, 1u);
}

TEST(ServicePlanCacheTest, ByteBudgetEvictsLeastRecentlyUsed) {
  QueryPlanCache cache(100);
  cache.Put("a", MakeEntry(0, 40), 0);
  cache.Put("b", MakeEntry(0, 40), 0);
  ASSERT_NE(cache.Get("a", 0), nullptr);  // a becomes most-recently-used.
  EXPECT_EQ(cache.Put("c", MakeEntry(0, 40), 0), 1u);  // Evicts b, the LRU.
  EXPECT_EQ(cache.Get("b", 0), nullptr);
  EXPECT_NE(cache.Get("a", 0), nullptr);
  EXPECT_NE(cache.Get("c", 0), nullptr);
  QueryPlanCache::Stats s = cache.stats();
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_LE(s.bytes, 100u);
}

TEST(ServicePlanCacheTest, OversizedEntryIsRefused) {
  QueryPlanCache cache(100);
  cache.Put("big", MakeEntry(0, 101), 0);
  EXPECT_EQ(cache.Get("big", 0), nullptr);
  EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(ServicePlanCacheTest, EvictedEntryStaysAliveForHolders) {
  QueryPlanCache cache(100);
  cache.Put("a", MakeEntry(0, 60), 0);
  std::shared_ptr<const CachedPlanEntry> held = cache.Get("a", 0);
  ASSERT_NE(held, nullptr);
  cache.Put("b", MakeEntry(0, 60), 0);  // Evicts a.
  EXPECT_EQ(cache.Get("a", 0), nullptr);
  EXPECT_EQ(held->bytes, 60u);  // The pinned entry is still valid.
}

// ---------------------------------------------------------------------------
// Admission control
// ---------------------------------------------------------------------------

std::chrono::steady_clock::time_point After(int ms) {
  return std::chrono::steady_clock::now() + std::chrono::milliseconds(ms);
}

TEST(ServiceAdmissionTest, ShedsWhenQueueFull) {
  AdmissionController admission(/*max_concurrent=*/1, /*max_queue=*/0);
  ASSERT_TRUE(admission.Acquire(After(1000)).ok());
  Status second = admission.Acquire(After(1000));
  EXPECT_EQ(second.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(admission.stats().shed, 1u);
  admission.Release();
}

TEST(ServiceAdmissionTest, DeadlinePassesWhileQueued) {
  AdmissionController admission(/*max_concurrent=*/1, /*max_queue=*/4);
  ASSERT_TRUE(admission.Acquire(After(5000)).ok());
  Status waited = admission.Acquire(After(30));
  EXPECT_EQ(waited.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(admission.stats().deadline_exceeded, 1u);
  admission.Release();
  // The freed slot is still grantable after the failed wait.
  ASSERT_TRUE(admission.Acquire(After(1000)).ok());
  admission.Release();
}

TEST(ServiceAdmissionTest, WaitersAdmittedInArrivalOrder) {
  AdmissionController admission(/*max_concurrent=*/1, /*max_queue=*/4);
  ASSERT_TRUE(admission.Acquire(After(5000)).ok());

  std::mutex order_mu;
  std::vector<int> order;
  auto waiter = [&](int id) {
    ASSERT_TRUE(admission.Acquire(After(5000)).ok());
    {
      std::lock_guard<std::mutex> lock(order_mu);
      order.push_back(id);
    }
    admission.Release();
  };
  std::thread first(waiter, 1);
  while (admission.stats().waiting < 1) std::this_thread::yield();
  std::thread second(waiter, 2);
  while (admission.stats().waiting < 2) std::this_thread::yield();

  admission.Release();
  first.join();
  second.join();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  AdmissionController::Stats s = admission.stats();
  EXPECT_EQ(s.admitted, 3u);
  EXPECT_EQ(s.running, 0u);
  EXPECT_EQ(s.waiting, 0u);
}

// ---------------------------------------------------------------------------
// QueryService over LUBM: cache hits skip the pipeline, answers stay
// identical, concurrency is deterministic.
// ---------------------------------------------------------------------------

class ServiceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    graph_ = new Graph();
    LubmOptions options;
    options.num_universities = 1;
    GenerateLubm(options, graph_);
    graph_->FinalizeSchema();
  }

  static ServiceOptions DefaultOptions() {
    ServiceOptions options;
    options.max_concurrent = 8;
    options.max_queue = 64;
    return options;
  }

  static Graph* graph_;
};

Graph* ServiceTest::graph_ = nullptr;

TEST_F(ServiceTest, RepeatQuerySkipsReformulationAndPlanning) {
  QueryService service(graph_, PostgresLikeProfile(), DefaultOptions());
  MetricCounter* hits =
      MetricsRegistry::Global().GetCounter("service.cache_hits");
  const uint64_t hits_before = hits->value();

  Result<ServiceOutcome> miss = service.AnswerText(LubmMotivatingQ1().text);
  ASSERT_TRUE(miss.ok()) << miss.status().ToString();
  EXPECT_FALSE(miss.ValueOrDie().cache_hit);
  EXPECT_FALSE(miss.ValueOrDie().answers.num_rows() == 0);

  TraceSession session;
  ScopedTraceSession scoped(&session);
  Result<ServiceOutcome> hit = service.AnswerText(LubmMotivatingQ1().text);
  ASSERT_TRUE(hit.ok()) << hit.status().ToString();
  EXPECT_TRUE(hit.ValueOrDie().cache_hit);
  EXPECT_EQ(hits->value(), hits_before + 1);

  // The acceptance criterion: the warm path never enters cover search,
  // reformulation or planning — only execution.
  EXPECT_EQ(session.FindSpan("answer.cover_search"), nullptr);
  EXPECT_EQ(session.FindSpan("answer.reformulate"), nullptr);
  EXPECT_EQ(session.FindSpan("answer.plan"), nullptr);
  EXPECT_EQ(session.FindSpan("answer.query"), nullptr);
  EXPECT_NE(session.FindSpan("service.execute"), nullptr);
  EXPECT_NE(session.FindSpan("service.query"), nullptr);

  // Identical rows, zero re-derivation time.
  EXPECT_EQ(RowSet(hit.ValueOrDie().answers),
            RowSet(miss.ValueOrDie().answers));
  EXPECT_EQ(hit.ValueOrDie().optimize_ms, 0.0);
  EXPECT_EQ(hit.ValueOrDie().reformulate_ms, 0.0);
  EXPECT_EQ(hit.ValueOrDie().plan_ms, 0.0);
  EXPECT_EQ(hit.ValueOrDie().chosen_cover, miss.ValueOrDie().chosen_cover);
}

TEST_F(ServiceTest, AlphaVariantHitsTheSameEntry) {
  QueryService service(graph_, PostgresLikeProfile(), DefaultOptions());
  std::string a =
      "PREFIX ub: <http://lubm.example.org/univ#> "
      "SELECT ?x ?y WHERE { ?x ub:advisor ?y . ?x rdf:type ub:Student }";
  std::string b =
      "PREFIX ub: <http://lubm.example.org/univ#> "
      "SELECT ?s ?a WHERE { ?s rdf:type ub:Student . ?s ub:advisor ?a }";
  Result<ServiceOutcome> first = service.AnswerText(a);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_FALSE(first.ValueOrDie().cache_hit);
  Result<ServiceOutcome> second = service.AnswerText(b);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_TRUE(second.ValueOrDie().cache_hit);
  EXPECT_EQ(RowSet(first.ValueOrDie().answers),
            RowSet(second.ValueOrDie().answers));
  // Column names follow each *submitted* query, not the canonical form.
  EXPECT_EQ(first.ValueOrDie().columns, (std::vector<std::string>{"x", "y"}));
  EXPECT_EQ(second.ValueOrDie().columns, (std::vector<std::string>{"s", "a"}));
}

TEST_F(ServiceTest, ConcurrentClientsGetSerialAnswers) {
  // Inline execution, and intra-query parallelism with every client's
  // queries sharing one worker pool.
  for (size_t workers : {size_t{1}, size_t{4}}) {
    SCOPED_TRACE("worker_threads=" + std::to_string(workers));
    EngineProfile profile = PostgresLikeProfile();
    profile.worker_threads = workers;
    QueryService service(graph_, profile, DefaultOptions());
    const std::vector<std::string> texts = {
        LubmMotivatingQ1().text,
        "PREFIX ub: <http://lubm.example.org/univ#> "
        "SELECT ?x ?y WHERE { ?x rdf:type ub:Faculty . ?y ub:advisor ?x }"};

    // Serial reference rows, computed before any concurrency.
    std::vector<std::set<std::vector<ValueId>>> reference;
    for (const std::string& text : texts) {
      Result<ServiceOutcome> r = service.AnswerText(text);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      reference.push_back(RowSet(r.ValueOrDie().answers));
    }

    constexpr int kThreads = 8;
    constexpr int kReps = 3;
    std::vector<std::thread> threads;
    std::atomic<int> mismatches{0};
    std::atomic<int> failures{0};
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&] {
        for (int rep = 0; rep < kReps; ++rep) {
          for (size_t qi = 0; qi < texts.size(); ++qi) {
            Result<ServiceOutcome> r = service.AnswerText(texts[qi]);
            if (!r.ok()) {
              ++failures;
              continue;
            }
            if (RowSet(r.ValueOrDie().answers) != reference[qi]) ++mismatches;
          }
        }
      });
    }
    for (std::thread& t : threads) t.join();
    EXPECT_EQ(failures.load(), 0);
    EXPECT_EQ(mismatches.load(), 0);
    QueryService::Stats stats = service.stats();
    EXPECT_GE(stats.cache.hits, static_cast<uint64_t>(kThreads));
    EXPECT_EQ(stats.admission.running, 0u);
  }
}

// A plan holds no view rows, so rows the catalog drops are freed at once —
// even while a plan that was served from them stays cached — and the next
// hit of that plan recomputes them.
TEST_F(ServiceTest, DroppedViewRowsDoNotOutliveTheCatalog) {
  ServiceOptions options = DefaultOptions();
  options.answer.strategy = Strategy::kScq;
  options.enable_views = true;
  QueryService service(graph_, PostgresLikeProfile(), options);
  const std::string first =
      "PREFIX ub: <http://lubm.example.org/univ#> "
      "SELECT ?x ?d WHERE { ?x rdf:type ub:Professor . ?x ub:worksFor ?d }";
  const std::string second =
      "PREFIX ub: <http://lubm.example.org/univ#> "
      "SELECT ?x ?c WHERE { ?x rdf:type ub:Professor . ?x ub:teacherOf ?c }";

  // The first query harvests its components; the second shares the
  // Professor component, reads its view and caches its plan.
  ASSERT_TRUE(service.AnswerText(first).ok());
  const uint64_t hits_before = service.stats().views.hits;
  Result<ServiceOutcome> served = service.AnswerText(second);
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  ASSERT_FALSE(served.ValueOrDie().cache_hit);
  ASSERT_GT(service.stats().views.hits, hits_before) << "no view was read";

  std::vector<std::weak_ptr<const Relation>> held;
  for (const ViewInfo& info : service.views()->Entries()) {
    if (info.resident) {
      held.push_back(service.views()->Lookup(info.signature, service.epoch()));
    }
  }
  ASSERT_FALSE(held.empty());
  for (const ViewInfo& info : service.views()->Entries()) {
    service.views()->Drop(info.signature);
  }
  for (const std::weak_ptr<const Relation>& rows : held) {
    EXPECT_TRUE(rows.expired()) << "dropped view rows are still referenced";
  }

  // The cached plan still runs: its components are recomputed (and offered
  // again) with the same rows in the same order.
  const uint64_t offers_before = service.stats().views.offers;
  Result<ServiceOutcome> again = service.AnswerText(second);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_TRUE(again.ValueOrDie().cache_hit);
  EXPECT_GT(service.stats().views.offers, offers_before);
  const Relation& a = served.ValueOrDie().answers;
  const Relation& b = again.ValueOrDie().answers;
  EXPECT_EQ(std::vector<ValueId>(a.cells_data(), a.cells_data() + a.num_cells()),
            std::vector<ValueId>(b.cells_data(), b.cells_data() + b.num_cells()));
}

// ---------------------------------------------------------------------------
// Epochs and invalidation, on a small purpose-built graph.
// ---------------------------------------------------------------------------

TEST(ServiceEpochTest, DataUpdateInvalidatesAndAnswersReflectNewState) {
  Graph graph;
  graph.AddIri("http://ex/alice", "http://ex/knows", "http://ex/bob");
  QueryService service(&graph, PostgresLikeProfile());
  const std::string q = "SELECT ?x WHERE { ?x <http://ex/knows> ?y }";

  Result<ServiceOutcome> r1 = service.AnswerText(q);
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  EXPECT_EQ(r1.ValueOrDie().answers.num_rows(), 1u);
  EXPECT_EQ(r1.ValueOrDie().epoch, 0u);
  ASSERT_TRUE(service.AnswerText(q).ValueOrDie().cache_hit);

  Triple t;
  t.s = graph.dict().InternIri("http://ex/carol");
  t.p = graph.dict().InternIri("http://ex/knows");
  t.o = graph.dict().InternIri("http://ex/dave");
  ASSERT_TRUE(service.ApplyUpdate({t}).ok());
  EXPECT_EQ(service.epoch(), 1u);

  // The warmed entry is keyed to epoch 0: the next call misses, replans
  // against the new snapshot and sees the new triple.
  Result<ServiceOutcome> r2 = service.AnswerText(q);
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  EXPECT_FALSE(r2.ValueOrDie().cache_hit);
  EXPECT_EQ(r2.ValueOrDie().epoch, 1u);
  EXPECT_EQ(r2.ValueOrDie().answers.num_rows(), 2u);

  // And the epoch-1 entry is immediately warm again.
  Result<ServiceOutcome> r3 = service.AnswerText(q);
  ASSERT_TRUE(r3.ok());
  EXPECT_TRUE(r3.ValueOrDie().cache_hit);
  EXPECT_EQ(r3.ValueOrDie().answers.num_rows(), 2u);
}

TEST(ServiceEpochTest, SchemaUpdateRebuildsReformulationWorld) {
  Graph graph;
  graph.AddIri("http://ex/alice", "http://www.w3.org/1999/02/22-rdf-syntax-ns#type",
               "http://ex/Student");
  graph.AddIri("http://ex/Student",
               "http://www.w3.org/2000/01/rdf-schema#subClassOf",
               "http://ex/Person");
  QueryService service(&graph, PostgresLikeProfile());
  const std::string q =
      "SELECT ?x WHERE { ?x rdf:type <http://ex/Person> }";

  Result<ServiceOutcome> r1 = service.AnswerText(q);
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  // Reformulation rewrites Person to its subclasses: alice qualifies.
  EXPECT_EQ(r1.ValueOrDie().answers.num_rows(), 1u);

  // Add a new subclass plus an instance of it, in one update: the schema
  // triple forces a full rebuild under a fresh epoch.
  std::vector<Triple> delta(2);
  delta[0].s = graph.dict().InternIri("http://ex/Professor");
  delta[0].p = graph.dict().InternIri(
      "http://www.w3.org/2000/01/rdf-schema#subClassOf");
  delta[0].o = graph.dict().InternIri("http://ex/Person");
  delta[1].s = graph.dict().InternIri("http://ex/bob");
  delta[1].p = graph.dict().InternIri(
      "http://www.w3.org/1999/02/22-rdf-syntax-ns#type");
  delta[1].o = graph.dict().InternIri("http://ex/Professor");
  ASSERT_TRUE(service.ApplyUpdate(delta).ok());

  Result<ServiceOutcome> r2 = service.AnswerText(q);
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  EXPECT_FALSE(r2.ValueOrDie().cache_hit);
  EXPECT_EQ(r2.ValueOrDie().answers.num_rows(), 2u);
}

TEST(ServiceEpochTest, CacheDisabledAlwaysMisses) {
  Graph graph;
  graph.AddIri("http://ex/a", "http://ex/p", "http://ex/b");
  ServiceOptions options;
  options.enable_cache = false;
  QueryService service(&graph, PostgresLikeProfile(), options);
  const std::string q = "SELECT ?x WHERE { ?x <http://ex/p> ?y }";
  EXPECT_FALSE(service.AnswerText(q).ValueOrDie().cache_hit);
  EXPECT_FALSE(service.AnswerText(q).ValueOrDie().cache_hit);
  EXPECT_EQ(service.stats().cache.entries, 0u);
}

// ---------------------------------------------------------------------------
// Data updates against the saturation oracle (paper Thm 3.1): answers at
// every epoch equal the query evaluated on saturate(data at that epoch),
// with readers racing the writer and under the saturation strategy, whose
// service alone maintains a saturated store.
// ---------------------------------------------------------------------------

using DecodedRows = std::set<std::vector<std::string>>;

constexpr char kEx[] = "http://ex/";
constexpr char kRdfType[] = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type";
constexpr char kRdfs[] = "http://www.w3.org/2000/01/rdf-schema#";

/// A small RDFS world in which every entailment rule of the DB fragment
/// shapes the answers: subclass, subproperty, domain and range.
class ServiceUpdateTest : public ::testing::Test {
 protected:
  static constexpr size_t kBatches = 8;

  void SetUp() override {
    const auto ex = [](const std::string& local) { return kEx + local; };
    const std::string rdfs = kRdfs;
    graph_.AddIri(ex("GradStudent"), rdfs + "subClassOf", ex("Student"));
    graph_.AddIri(ex("Student"), rdfs + "subClassOf", ex("Person"));
    graph_.AddIri(ex("Professor"), rdfs + "subClassOf", ex("Person"));
    graph_.AddIri(ex("advisor"), rdfs + "subPropertyOf", ex("knows"));
    graph_.AddIri(ex("advisor"), rdfs + "domain", ex("GradStudent"));
    graph_.AddIri(ex("advisor"), rdfs + "range", ex("Professor"));
    graph_.AddIri(ex("teaches"), rdfs + "domain", ex("Professor"));
    graph_.AddIri(ex("s0"), kRdfType, ex("Student"));
    graph_.AddIri(ex("p0"), ex("teaches"), ex("c0"));
    graph_.FinalizeSchema();
    base_ = graph_.data_triples();
    // Every term is interned now, before any service or reader exists:
    // updates carry ids only.
    const auto id = [&](const std::string& local) {
      return graph_.dict().InternIri(ex(local));
    };
    const ValueId type = graph_.dict().InternIri(kRdfType);
    for (size_t k = 1; k <= kBatches; ++k) {
      const std::string n = std::to_string(k);
      std::vector<Triple> batch = {
          {id("s" + n), id("advisor"), id("p" + n)},
          {id("p" + n), id("teaches"), id("c" + n)},
          {id("x" + n), id("knows"), id("s" + std::to_string(k - 1))},
          {id("x" + n), type, id(k % 2 == 0 ? "Student" : "GradStudent")},
          // Already present at every epoch after the first batch: the
          // merge and statistics paths see duplicates too.
          {id("s1"), id("advisor"), id("p1")}};
      batches_.push_back(std::move(batch));
    }
  }

  static const std::vector<std::string>& Queries() {
    static const std::vector<std::string> queries = {
        "SELECT ?x WHERE { ?x rdf:type <http://ex/Person> }",
        "SELECT ?x ?y WHERE { ?x <http://ex/knows> ?y . "
        "?y rdf:type <http://ex/Professor> }",
        "SELECT ?x ?c WHERE { ?x rdf:type <http://ex/Person> . "
        "?x <http://ex/teaches> ?c }",
        "SELECT ?x ?y WHERE { ?x <http://ex/knows> ?y . "
        "?x rdf:type <http://ex/GradStudent> }"};
    return queries;
  }

  /// Rows of `text` evaluated directly on saturate(data at `epoch`),
  /// decoded to terms. Data-only updates leave the schema as it was.
  DecodedRows OracleRows(const std::string& text, Epoch epoch) {
    std::vector<Triple> data = base_;
    for (size_t k = 0; k < epoch; ++k) {
      data.insert(data.end(), batches_[k].begin(), batches_[k].end());
    }
    const TripleStore saturated =
        Saturate(TripleStore::Build(std::move(data)), graph_.schema(),
                 graph_.vocab())
            .store;
    Result<Query> query = ParseQuery(text, &graph_.dict());
    EXPECT_TRUE(query.ok()) << query.status().ToString();
    Evaluator evaluator(&saturated, &NativeStoreProfile());
    Result<Relation> rows =
        evaluator.EvaluateCQ(query.ValueOrDie().cq, nullptr);
    EXPECT_TRUE(rows.ok()) << rows.status().ToString();
    DecodedRows out;
    const Relation& relation = rows.ValueOrDie();
    for (size_t r = 0; r < relation.num_rows(); ++r) {
      std::vector<std::string> row;
      for (size_t c = 0; c < relation.arity(); ++c) {
        row.push_back(graph_.dict().term(relation.at(r, c)).lexical);
      }
      out.insert(std::move(row));
    }
    return out;
  }

  static DecodedRows ServiceRows(const QueryService& service,
                                 const Relation& answers) {
    DecodedRows out;
    for (size_t r = 0; r < answers.num_rows(); ++r) {
      out.insert(service.DecodeRow(answers, r));
    }
    return out;
  }

  Graph graph_;
  std::vector<Triple> base_;
  std::vector<std::vector<Triple>> batches_;
};

TEST_F(ServiceUpdateTest, ReadersMatchOracleAtTheirEpochWhileWriterUpdates) {
  ServiceOptions options;
  options.enable_views = true;
  options.view_advisor_interval = 4;
  options.view_min_observations = 1;
  QueryService service(&graph_, PostgresLikeProfile(), options);

  struct Observed {
    size_t query;
    Epoch epoch;
    DecodedRows rows;
  };
  std::mutex observed_mu;
  std::vector<Observed> observed;
  std::atomic<bool> writer_done{false};
  // -1 until the first answer, so the writer waits for epoch 0 too.
  std::atomic<int64_t> max_answered_epoch{-1};
  std::atomic<int> failures{0};

  constexpr int kReaders = 3;
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      for (size_t i = r; !writer_done.load(); ++i) {
        const size_t qi = i % Queries().size();
        Result<ServiceOutcome> answer = service.AnswerText(Queries()[qi]);
        if (!answer.ok()) {
          ++failures;
          continue;
        }
        const ServiceOutcome& outcome = answer.ValueOrDie();
        Observed o{qi, outcome.epoch, ServiceRows(service, outcome.answers)};
        {
          std::lock_guard<std::mutex> lock(observed_mu);
          observed.push_back(std::move(o));
        }
        const auto epoch = static_cast<int64_t>(outcome.epoch);
        int64_t seen = max_answered_epoch.load();
        while (seen < epoch &&
               !max_answered_epoch.compare_exchange_weak(seen, epoch)) {
        }
      }
    });
  }

  // The writer applies each batch once some reader has answered at the
  // current epoch, so every epoch is observed while updates keep racing
  // reads.
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(60);
  const auto await_answer_at_current_epoch = [&] {
    while (max_answered_epoch.load() <
               static_cast<int64_t>(service.epoch()) &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
  };
  for (const std::vector<Triple>& batch : batches_) {
    await_answer_at_current_epoch();
    ASSERT_TRUE(service.ApplyUpdate(batch).ok());
  }
  await_answer_at_current_epoch();
  writer_done = true;
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(service.epoch(), kBatches);
  std::map<std::pair<size_t, Epoch>, DecodedRows> oracle;
  std::set<Epoch> epochs;
  for (const Observed& o : observed) {
    epochs.insert(o.epoch);
    auto key = std::make_pair(o.query, o.epoch);
    auto it = oracle.find(key);
    if (it == oracle.end()) {
      it = oracle.emplace(key, OracleRows(Queries()[o.query], o.epoch)).first;
    }
    EXPECT_EQ(o.rows, it->second)
        << "query " << o.query << " at epoch " << o.epoch;
  }
  EXPECT_EQ(epochs.size(), kBatches + 1);
}

TEST_F(ServiceUpdateTest, SaturationStrategyMaintainsSaturatedStore) {
  ServiceOptions options;
  options.answer.strategy = Strategy::kSaturation;
  QueryService service(&graph_, PostgresLikeProfile(), options);
  for (Epoch epoch = 0; epoch <= kBatches; ++epoch) {
    if (epoch > 0) {
      ASSERT_TRUE(service.ApplyUpdate(batches_[epoch - 1]).ok());
    }
    for (const std::string& text : Queries()) {
      Result<ServiceOutcome> answer = service.AnswerText(text);
      ASSERT_TRUE(answer.ok()) << answer.status().ToString();
      EXPECT_EQ(answer.ValueOrDie().epoch, epoch);
      EXPECT_EQ(ServiceRows(service, answer.ValueOrDie().answers),
                OracleRows(text, epoch))
          << text << " at epoch " << epoch;
    }
  }
}

TEST_F(ServiceUpdateTest, RejectedUpdateAddsNothing) {
  QueryService service(&graph_, PostgresLikeProfile());
  const size_t before = graph_.num_data_triples();
  std::vector<Triple> update = batches_[0];
  update.push_back(Triple{0, 0, static_cast<ValueId>(graph_.dict().size())});
  EXPECT_EQ(service.ApplyUpdate(update).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(graph_.num_data_triples(), before);
  EXPECT_EQ(service.epoch(), 0u);
}

}  // namespace
}  // namespace rdfopt
