#include "engine/plan.h"

#include <cctype>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/trace.h"
#include "cost/cost_model.h"
#include "engine/evaluator.h"
#include "engine/explain.h"
#include "engine/planner.h"
#include "golden.h"
#include "hierarchy_workloads.h"
#include "optimizer/answering.h"
#include "optimizer/cover.h"
#include "rdf/graph.h"
#include "reformulation/reformulator.h"
#include "sparql/parser.h"
#include "storage/statistics.h"
#include "workload/lubm.h"
#include "workload/query_sets.h"

namespace rdfopt {
namespace {

TriplePattern VarAtom(VarId s, VarId o, VarId p) {
  return TriplePattern{PatternTerm::Var(s), PatternTerm::Var(p),
                       PatternTerm::Var(o)};
}

TEST(GreedyAtomOrderTest, StartsWithTheSmallestScan) {
  // Disconnected atoms: pure smallest-first.
  std::vector<TriplePattern> atoms = {VarAtom(0, 1, 10), VarAtom(2, 3, 11),
                                      VarAtom(4, 5, 12)};
  std::vector<size_t> order = GreedyAtomOrder(atoms, {100.0, 10.0, 1.0});
  EXPECT_EQ(order, (std::vector<size_t>{2, 1, 0}));
}

TEST(GreedyAtomOrderTest, PrefersConnectedOverSmaller) {
  // After the smallest atom (?z ?q), the connected (?y ?z) atom wins even
  // though the disconnected (?x ?y) atom has the smaller scan.
  std::vector<TriplePattern> atoms = {VarAtom(0, 1, 10), VarAtom(1, 2, 11),
                                      VarAtom(2, 3, 12)};
  std::vector<size_t> order = GreedyAtomOrder(atoms, {5.0, 50.0, 1.0});
  EXPECT_EQ(order, (std::vector<size_t>{2, 1, 0}));
}

TEST(GreedyAtomOrderTest, TiesResolveToTheLowestIndex) {
  std::vector<TriplePattern> atoms = {VarAtom(0, 1, 10), VarAtom(0, 2, 11),
                                      VarAtom(0, 3, 12)};
  std::vector<size_t> order = GreedyAtomOrder(atoms, {7.0, 7.0, 7.0});
  EXPECT_EQ(order, (std::vector<size_t>{0, 1, 2}));
}

// Planner structure tests over a tiny hand-built graph.
class PlannerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto add = [&](const char* s, const char* p, const char* o) {
      graph_.AddIri(s, p, o);
    };
    add("a", "knows", "b");
    add("b", "knows", "c");
    add("c", "knows", "a");
    add("a", "likes", "b");
    add("b", "likes", "b");
    store_ = TripleStore::Build(graph_.data_triples());
    profile_ = PostgresLikeProfile();
    estimator_.emplace(&store_, nullptr);
    evaluator_.emplace(&store_, &profile_, &*estimator_);
  }

  Query MustParse(const std::string& text) {
    Result<Query> q = ParseQuery(text, &graph_.dict());
    EXPECT_TRUE(q.ok()) << q.status().ToString();
    return q.TakeValue();
  }

  Planner MakePlanner() { return Planner(&*estimator_, &profile_); }

  Graph graph_;
  TripleStore store_;
  EngineProfile profile_;
  std::optional<CardinalityEstimator> estimator_;
  std::optional<Evaluator> evaluator_;
};

TEST_F(PlannerTest, PlanCqShapeAndPreorderIds) {
  Query q = MustParse(
      "SELECT ?x WHERE { ?x <knows> ?y . ?y <likes> ?y . }");
  PhysicalPlan plan = MakePlanner().PlanCQ(q.cq);
  ASSERT_NE(plan.root, nullptr);
  EXPECT_EQ(plan.shape, PlanShape::kCq);
  EXPECT_TRUE(plan.feasibility.ok());
  EXPECT_EQ(plan.root->kind, PlanNodeKind::kDedup);
  ASSERT_EQ(plan.root->children.size(), 1u);
  EXPECT_EQ(plan.root->children[0]->kind, PlanNodeKind::kProject);
  EXPECT_GT(plan.est_cost(), 0.0);
  EXPECT_GT(plan.root->est_rows, 0.0);

  // Ids are a dense preorder numbering; no node is marked executed yet.
  int expected = 0;
  plan.ForEachNode([&](const PlanNode& node) {
    EXPECT_EQ(node.id, expected++);
    EXPECT_FALSE(node.executed);
    EXPECT_EQ(node.actual_rows, 0u);
  });
  EXPECT_EQ(expected, plan.num_nodes);
}

TEST_F(PlannerTest, ExecutePlanFillsActualsAndResetClearsThem) {
  Query q = MustParse(
      "SELECT ?x WHERE { ?x <knows> ?y . ?y <likes> ?y . }");
  PhysicalPlan plan = MakePlanner().PlanCQ(q.cq);
  Result<Relation> first = evaluator_->ExecutePlan(&plan, nullptr);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first.ValueOrDie().num_rows(), 1u);
  EXPECT_TRUE(plan.root->executed);
  EXPECT_EQ(plan.root->actual_rows, 1u);

  plan.ResetActuals();
  plan.ForEachNode([&](const PlanNode& node) {
    EXPECT_FALSE(node.executed);
    EXPECT_EQ(node.actual_rows, 0u);
  });

  // The same plan executes again (ExecutePlan resets internally too).
  Result<Relation> second = evaluator_->ExecutePlan(&plan, nullptr);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.ValueOrDie().num_rows(), 1u);
}

TEST_F(PlannerTest, OverLimitUnionIsRenderedButNotExecutable) {
  profile_.max_union_terms = 2;
  Query q = MustParse("SELECT ?x ?y WHERE { ?x <knows> ?y . }");
  UnionQuery ucq;
  ucq.head = q.cq.head;
  for (int i = 0; i < 5; ++i) ucq.disjuncts.push_back(q.cq);

  PhysicalPlan plan = MakePlanner().PlanUCQ(ucq);
  EXPECT_FALSE(plan.feasibility.ok());
  EXPECT_EQ(plan.feasibility.message(), UnionLimitMessage(5, profile_));
  ASSERT_NE(plan.root, nullptr);
  const PlanNode* u = plan.root->children[0].get();
  ASSERT_EQ(u->kind, PlanNodeKind::kUnionAll);
  EXPECT_TRUE(u->over_limit);
  EXPECT_EQ(u->union_terms, 5u);          // Authoritative term count...
  EXPECT_LT(u->children.size(), 5u);      // ...only a sample is planned.

  // The plan still renders for EXPLAIN, but executing it reports the same
  // kQueryTooComplex the feasibility check recorded.
  std::string text = ExplainPlan(plan, q.vars, graph_.dict());
  EXPECT_NE(text.find("exceeds the plan limit"), std::string::npos);
  Result<Relation> r = evaluator_->ExecutePlan(&plan, nullptr);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kQueryTooComplex);
  EXPECT_EQ(r.status().message(), plan.feasibility.message());
}

TEST_F(PlannerTest, CombineComponentsGreedySmallestConnectedFirst) {
  Planner planner = MakePlanner();
  // (est rows, output columns) per component.
  std::vector<std::pair<double, std::vector<VarId>>> inputs = {
      {1000.0, {0, 1}}, {10.0, {1, 2}}, {50.0, {2, 3}}};
  Planner::ComponentCombination comb = planner.CombineComponents(inputs);
  // Start with the smallest (1), then the smallest sharing a column (2 via
  // column 2; component 0 shares column 1 but is larger), then 0.
  EXPECT_EQ(comb.order, (std::vector<size_t>{1, 2, 0}));
  EXPECT_EQ(comb.pipelined, 0u);  // Largest estimate stays pipelined.
  EXPECT_GT(comb.combine_cost, 0.0);
  EXPECT_GE(comb.est_rows, 0.0);
}

TEST_F(PlannerTest, SingleComponentCombinesForFree) {
  Planner planner = MakePlanner();
  Planner::ComponentCombination comb =
      planner.CombineComponents({{42.0, {0, 1}}});
  EXPECT_EQ(comb.order, (std::vector<size_t>{0}));
  EXPECT_EQ(comb.pipelined, 0u);
  EXPECT_DOUBLE_EQ(comb.combine_cost, 0.0);
}

TEST_F(PlannerTest, ExplainCostIsThePlannedCost) {
  Query q = MustParse(
      "SELECT ?x WHERE { ?x <knows> ?y . ?y <likes> ?y . }");
  UnionQuery ucq;
  ucq.head = q.cq.head;
  ucq.disjuncts.push_back(q.cq);
  JoinOfUnions jucq;
  jucq.head = q.cq.head;
  jucq.components.push_back(ucq);
  PhysicalPlan plan = MakePlanner().PlanJUCQ(jucq);
  EXPECT_DOUBLE_EQ(evaluator_->ExplainCost(jucq, *estimator_),
                   plan.est_cost());
}

// The tentpole regression: EXPLAIN and the executor consume the same plan
// tree, so the join order EXPLAIN prints — the atom order within every
// disjunct and the component join order — must be exactly the order the
// executor runs. Node ids are the correlation key: EXPLAIN prints them as
// "[#id]" and each operator's trace span carries a "node" attribute.
class PlanOrderConsistencyTest : public ::testing::Test {
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

  /// All "[#id]" markers in `text`, line by line, keyed by the component
  /// whose section the line is in (-1 before the first component header;
  /// the final join line is skipped).
  static std::map<int, std::vector<int>> ExplainIdsByComponent(
      const std::string& text) {
    std::map<int, std::vector<int>> ids;
    int component = -1;
    size_t pos = 0;
    while (pos < text.size()) {
      size_t end = text.find('\n', pos);
      if (end == std::string::npos) end = text.size();
      std::string line = text.substr(pos, end - pos);
      pos = end + 1;
      if (line.rfind("  component ", 0) == 0) {
        component = std::atoi(line.c_str() + 12);
        continue;  // The component header carries the dedup id, not an op.
      }
      if (line.rfind("  final:", 0) == 0) continue;
      size_t mark = line.rfind("  [#");
      if (mark == std::string::npos) continue;
      ids[component].push_back(std::atoi(line.c_str() + mark + 4));
    }
    return ids;
  }

  /// The "(join order: a, b, ...)" component indices of the final line.
  static std::vector<int> ExplainJoinOrder(const std::string& text) {
    std::vector<int> order;
    size_t pos = text.find("(join order:");
    if (pos == std::string::npos) return order;
    pos += 12;
    while (pos < text.size() && text[pos] != ')') {
      if (std::isdigit(static_cast<unsigned char>(text[pos]))) {
        order.push_back(std::atoi(text.c_str() + pos));
        while (pos < text.size() &&
               std::isdigit(static_cast<unsigned char>(text[pos]))) {
          ++pos;
        }
      } else {
        ++pos;
      }
    }
    return order;
  }

  static Graph* graph_;
  static TripleStore* store_;
  static Statistics* stats_;
  static EngineProfile* profile_;
  static QueryAnswerer* answerer_;
};

Graph* PlanOrderConsistencyTest::graph_ = nullptr;
TripleStore* PlanOrderConsistencyTest::store_ = nullptr;
Statistics* PlanOrderConsistencyTest::stats_ = nullptr;
EngineProfile* PlanOrderConsistencyTest::profile_ = nullptr;
QueryAnswerer* PlanOrderConsistencyTest::answerer_ = nullptr;

TEST_F(PlanOrderConsistencyTest, ExplainOrderMatchesExecutionOrder) {
  Result<Query> q = ParseQuery(LubmMotivatingQ1().text, &graph_->dict());
  ASSERT_TRUE(q.ok()) << q.status().ToString();

  // SCQ: one component per atom, so the component join order is exercised.
  AnswerOptions options;
  options.strategy = Strategy::kScq;
  options.keep_reformulation = true;
  Result<AnswerOutcome> r = answerer_->Answer(q.ValueOrDie(), options);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  AnswerOutcome o = r.TakeValue();
  ASSERT_TRUE(o.plan.has_value());
  ASSERT_GT(o.num_components, 1u);

  const std::string text =
      ExplainPlan(*o.plan, *o.jucq_vars, graph_->dict());
  std::map<int, std::vector<int>> explain_ids = ExplainIdsByComponent(text);
  std::vector<int> explain_join_order = ExplainJoinOrder(text);
  ASSERT_EQ(explain_join_order.size(), o.num_components);

  // Re-execute the exact same plan under a trace session.
  TraceSession session;
  Result<Relation> rerun = [&] {
    ScopedTraceSession scoped(&session);
    return answerer_->evaluator().ExecutePlan(&*o.plan, nullptr);
  }();
  ASSERT_TRUE(rerun.ok()) << rerun.status().ToString();
  EXPECT_EQ(rerun.ValueOrDie().num_rows(), o.answers.num_rows());

  // Node id -> component index, from the plan itself.
  std::map<int, int> dedup_component;
  o.plan->ForEachNode([&](const PlanNode& node) {
    if (node.kind == PlanNodeKind::kDedup && node.component >= 0) {
      dedup_component[node.id] = node.component;
    }
  });

  // Walk the span list in open (= execution) order: the engine.ucq span
  // sequence is the executed component order, and every operator span under
  // one contributes that component's executed node sequence.
  const std::vector<TraceSpanRecord>& spans = session.spans();
  std::vector<int> executed_component_order;
  std::map<int, int> span_component;  // Span index -> component.
  std::map<int, std::vector<int>> executed_ids;
  for (size_t i = 0; i < spans.size(); ++i) {
    const TraceSpanRecord& span = spans[i];
    if (span.name == "engine.ucq") {
      const TraceSpanRecord::Attribute* node = span.FindAttribute("node");
      ASSERT_NE(node, nullptr);
      int component = dedup_component.at(std::stoi(node->value));
      span_component[static_cast<int>(i)] = component;
      executed_component_order.push_back(component);
      continue;
    }
    if (span.name != "op.scan" && span.name != "op.index_join" &&
        span.name != "op.hash_join") {
      continue;
    }
    // Find the enclosing component, if any.
    int parent = span.parent;
    while (parent >= 0 && span_component.find(parent) == span_component.end()) {
      parent = spans[static_cast<size_t>(parent)].parent;
    }
    if (parent < 0) continue;
    const TraceSpanRecord::Attribute* node = span.FindAttribute("node");
    ASSERT_NE(node, nullptr);
    executed_ids[span_component.at(parent)].push_back(
        std::stoi(node->value));
  }

  // Component join order: EXPLAIN's final line vs. the engine.ucq spans.
  EXPECT_EQ(executed_component_order,
            std::vector<int>(explain_join_order.begin(),
                             explain_join_order.end()));

  // Per-component operator order. EXPLAIN samples only the first terms of a
  // union and omits hash-probe scans; the executor skips short-circuited
  // subtrees. So compare the two sequences restricted to their common ids —
  // order must agree exactly.
  size_t compared = 0;
  for (const auto& [component, printed] : explain_ids) {
    ASSERT_GE(component, 0) << "operator line outside any component:\n"
                            << text;
    std::set<int> printed_set(printed.begin(), printed.end());
    const std::vector<int>& executed = executed_ids[component];
    std::set<int> executed_set(executed.begin(), executed.end());
    std::vector<int> printed_common;
    for (int id : printed) {
      if (executed_set.count(id) != 0) printed_common.push_back(id);
    }
    std::vector<int> executed_common;
    for (int id : executed) {
      if (printed_set.count(id) != 0) executed_common.push_back(id);
    }
    EXPECT_EQ(printed_common, executed_common)
        << "component " << component << " order mismatch:\n"
        << text;
    compared += printed_common.size();
  }
  EXPECT_GT(compared, 0u);

  // EXPLAIN ANALYZE on the executed plan shows estimates alongside actuals.
  ExplainOptions analyze;
  analyze.analyze = true;
  const std::string analyzed =
      ExplainPlan(*o.plan, *o.jucq_vars, graph_->dict(), analyze);
  EXPECT_NE(analyzed.find("(actual "), std::string::npos);
  EXPECT_NE(analyzed.find("~"), std::string::npos);
}

TEST_F(PlanOrderConsistencyTest, GcovKeepsPlanAndAnswersMatchExecution) {
  Result<Query> q = ParseQuery(LubmMotivatingQ1().text, &graph_->dict());
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  AnswerOptions options;
  options.strategy = Strategy::kGcov;
  options.keep_reformulation = true;
  Result<AnswerOutcome> r = answerer_->Answer(q.ValueOrDie(), options);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  AnswerOutcome o = r.TakeValue();
  ASSERT_TRUE(o.plan.has_value());
  // The kept plan is the executed one: its root actuals are the answer
  // count, and the estimate annotations survive next to them.
  ASSERT_NE(o.plan->root, nullptr);
  EXPECT_TRUE(o.plan->root->executed);
  EXPECT_EQ(o.plan->root->actual_rows, o.answers.num_rows());
  EXPECT_GT(o.plan->est_cost(), 0.0);
}

// ---------------------------------------------------------------------------
// Planner fingerprints: one line per plan over the evaluation query sets on
// hierarchy-encoded stores, pinning the plan shape (PlanDigest), the union
// term counts, feasibility and the bits of every node's estimates. Any
// change to atom order, operator choice, range collapse, union-subplan
// sharing or cost arithmetic shows up as a diff against
// tests/golden/planner_fingerprints.txt.
//
// To regenerate after an intentional change:
//   RDFOPT_UPDATE_GOLDENS=1 ./rdfopt_tests --gtest_filter='PlannerFingerprint*'

/// Reformulations above this many terms are recorded as skipped (the same
/// budget as the hierarchy differential suite).
constexpr size_t kMaxFingerprintTerms = 4096;

uint64_t DoubleBits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  return bits;
}

/// FNV-1a over the bits of every node's est_rows and est_cost, shared
/// subplans included, in preorder.
uint64_t EstimateBitsDigest(const PhysicalPlan& plan) {
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 1099511628211ull;
    }
  };
  plan.ForEachNode([&](const PlanNode& node) {
    mix(DoubleBits(node.est_rows));
    mix(DoubleBits(node.est_cost));
  });
  return h;
}

std::string FingerprintLine(const std::string& label,
                            const PhysicalPlan& plan) {
  size_t pre_collapse = 0;
  plan.ForEachNode([&](const PlanNode& node) {
    if (node.kind == PlanNodeKind::kUnionAll) {
      pre_collapse += node.pre_collapse_terms;
    }
  });
  char buf[256];
  std::snprintf(buf, sizeof buf,
                " digest=%016llx terms=%zu pre=%zu feasible=%d rows=%a "
                "cost=%a est=%016llx\n",
                static_cast<unsigned long long>(PlanDigest(plan)),
                plan.union_terms, pre_collapse, plan.feasibility.ok() ? 1 : 0,
                plan.root->est_rows, plan.root->est_cost,
                static_cast<unsigned long long>(EstimateBitsDigest(plan)));
  return label + buf;
}

bool HasScanRange(const PhysicalPlan& plan) {
  bool found = false;
  plan.ForEachNode([&](const PlanNode& node) {
    found = found || node.kind == PlanNodeKind::kScanRange;
  });
  return found;
}

/// Fingerprints of every query of `set` on `w`: PlanUCQ of the UCQ
/// reformulation and PlanJUCQ of the SCQ cover reformulation, each under
/// {ranges off, on} x {union-subplan sharing off, on}.
void AppendFingerprints(testing::HierarchyWorkload* w, const char* set_name,
                        const std::vector<BenchmarkQuery>& set,
                        std::string* out) {
  const Statistics stats = Statistics::Compute(w->store);
  const CardinalityEstimator estimator(&w->store, &stats);
  Reformulator reformulator(&w->graph.schema(), &w->graph.vocab());
  for (const BenchmarkQuery& bq : set) {
    Result<Query> parsed = ParseQuery(bq.text, &w->graph.dict());
    ASSERT_TRUE(parsed.ok()) << bq.name << ": " << parsed.status().ToString();
    Query q = parsed.TakeValue();
    const std::string prefix = std::string(set_name) + "/" + bq.name;
    VarTable ucq_vars = q.vars;
    Result<UnionQuery> ucq = reformulator.ReformulateCQ(q.cq, &ucq_vars);
    const bool plan_ucq =
        ucq.ok() && ucq.ValueOrDie().size() <= kMaxFingerprintTerms;
    if (!plan_ucq) *out += prefix + " ucq skipped\n";
    VarTable jucq_vars = q.vars;
    Result<JoinOfUnions> jucq = CoverBasedReformulation(
        q.cq, ScqCover(q.cq.atoms.size()), reformulator, &jucq_vars,
        kMaxFingerprintTerms);
    if (!jucq.ok()) *out += prefix + " scq skipped\n";
    for (bool ranges : {false, true}) {
      for (bool share : {false, true}) {
        EngineProfile profile = testing::BatchProfile(ranges);
        profile.share_union_subplans = share;
        const Planner planner(&estimator, &profile);
        const std::string config = std::string(" ranges=") +
                                   (ranges ? "1" : "0") +
                                   " share=" + (share ? "1" : "0");
        if (plan_ucq) {
          *out += FingerprintLine(prefix + " ucq" + config,
                                  planner.PlanUCQ(ucq.ValueOrDie()));
        }
        if (jucq.ok()) {
          *out += FingerprintLine(prefix + " scq" + config,
                                  planner.PlanJUCQ(jucq.ValueOrDie()));
        }
      }
    }
  }
}

TEST(PlannerFingerprintTest, PlansMatchGolden) {
  std::string out;
  AppendFingerprints(&testing::LubmWorkload(), "lubm", LubmQuerySet(), &out);
  AppendFingerprints(&testing::LubmFineGrainedWorkload(), "lubm48",
                     LubmQuerySet(), &out);
  AppendFingerprints(&testing::DblpWorkload(), "dblp", DblpQuerySet(), &out);

  // A range and a residual branch in one union (multi-parent diamond).
  testing::HierarchyWorkload diamond;
  testing::BuildDiamondWorkload(&diamond);
  std::vector<BenchmarkQuery> diamond_set;
  for (const char* cls : {"Prof", "TeachingProf", "ResearchProf"}) {
    diamond_set.push_back(
        {cls, std::string("SELECT ?x WHERE { ?x rdf:type <http://ex/") + cls +
                  "> }"});
  }
  AppendFingerprints(&diamond, "diamond", diamond_set, &out);

  // Ranged unions over the plan limit: only sample branches are planned.
  testing::HierarchyWorkload& lubm = testing::LubmWorkload();
  const Statistics stats = Statistics::Compute(lubm.store);
  const CardinalityEstimator estimator(&lubm.store, &stats);
  Reformulator reformulator(&lubm.graph.schema(), &lubm.graph.vocab());
  EngineProfile limited = testing::BatchProfile(/*hierarchy_ranges=*/true);
  limited.max_union_terms = 2;
  const Planner planner(&estimator, &limited);
  size_t sampled_ranged = 0;
  for (const BenchmarkQuery& bq : LubmQuerySet()) {
    Result<Query> parsed = ParseQuery(bq.text, &lubm.graph.dict());
    ASSERT_TRUE(parsed.ok()) << bq.name;
    Query q = parsed.TakeValue();
    Result<UnionQuery> ucq = reformulator.ReformulateCQ(q.cq, &q.vars);
    if (!ucq.ok() || ucq.ValueOrDie().size() > kMaxFingerprintTerms) continue;
    PhysicalPlan plan = planner.PlanUCQ(ucq.ValueOrDie());
    out += FingerprintLine("lubm/" + bq.name + " ucq ranges=1 limit=2", plan);
    if (!plan.feasibility.ok() && HasScanRange(plan) &&
        plan.union_terms > 3) {
      ++sampled_ranged;
    }
  }
  EXPECT_GE(sampled_ranged, 1u);

  testing::CheckGolden("planner_fingerprints.txt", out);
}

// The cover oracle's §4.1 inputs charge c_union_term on the collapse
// decision's post-collapse term count; the planner must run exactly that
// many union terms, whatever the cost constants say about range scans.
void ExpectOracleCountsPlannedTerms(testing::HierarchyWorkload* w,
                                    const std::vector<BenchmarkQuery>& set,
                                    const EngineProfile& profile) {
  const Evaluator engine(&w->store, &profile);
  Reformulator reformulator(&w->graph.schema(), &w->graph.vocab());
  for (const BenchmarkQuery& bq : set) {
    Result<Query> parsed = ParseQuery(bq.text, &w->graph.dict());
    ASSERT_TRUE(parsed.ok()) << bq.name;
    Query q = parsed.TakeValue();
    Result<UnionQuery> ucq = reformulator.ReformulateCQ(q.cq, &q.vars);
    if (!ucq.ok() || ucq.ValueOrDie().size() > kMaxFingerprintTerms) continue;
    const UcqCostInputs inputs = ComputeUcqCostInputs(
        ucq.ValueOrDie(), engine.estimator(), w->store.hierarchy());
    EXPECT_EQ(inputs.num_disjuncts,
              engine.planner().PlanUCQ(ucq.ValueOrDie()).union_terms)
        << bq.name << " on " << profile.name << " (c_r " << profile.cost.c_r
        << ", c_t " << profile.cost.c_t << ")";
  }
}

TEST(PlannerFingerprintTest, OracleCountsTheUnionTermsThePlannerRuns) {
  EngineProfile stock = testing::BatchProfile(/*hierarchy_ranges=*/true);
  EngineProfile slow_ranges = stock;
  slow_ranges.cost.c_r = 100.0 * stock.cost.c_t;
  for (const EngineProfile* profile : {&stock, &slow_ranges}) {
    ExpectOracleCountsPlannedTerms(&testing::LubmWorkload(), LubmQuerySet(),
                                   *profile);
    ExpectOracleCountsPlannedTerms(&testing::LubmFineGrainedWorkload(),
                                   LubmQuerySet(), *profile);
    ExpectOracleCountsPlannedTerms(&testing::DblpWorkload(), DblpQuerySet(),
                                   *profile);
  }
}

}  // namespace
}  // namespace rdfopt
