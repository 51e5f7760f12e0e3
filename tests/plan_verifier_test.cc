// Static plan verification (engine/plan_verifier.h): every plan the
// planner builds — CQ chains, reformulation unions, shared-subplan and
// hierarchy-range variants, over-limit plans, full JUCQ covers — must
// verify clean; and a corruption matrix of targeted mutations over those
// same plans must each be rejected under the expected invariant rule.

#include "engine/plan_verifier.h"

#include <cmath>
#include <memory>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "common/check.h"
#include "engine/evaluator.h"
#include "rdf/hierarchy_encoding.h"
#include "optimizer/answering.h"
#include "rdf/graph.h"
#include "reasoner/saturation.h"
#include "reformulation/reformulator.h"
#include "sparql/parser.h"
#include "storage/statistics.h"
#include "workload/lubm.h"
#include "workload/query_sets.h"

namespace rdfopt {
namespace {

/// Fine-grained LUBM (48 specialty leaf classes): reformulations fan out to
/// ~50-term unions, and the attached hierarchy encoding lets the
/// hierarchy-range profile collapse them into ScanRange intervals.
struct Workload {
  Graph graph;
  TripleStore store;
  SaturationResult sat;
  Statistics stats;

  Workload() {
    LubmOptions options;
    options.num_universities = 1;
    options.fine_grained_specializations = 48;
    GenerateLubm(options, &graph);
    graph.FinalizeSchema();
    store = TripleStore::Build(graph.data_triples());
    store.AttachHierarchy(std::make_shared<const HierarchyEncoding>(
        HierarchyEncoding::Build(graph.schema(), graph.vocab().rdf_type)));
    sat = Saturate(store, graph.schema(), graph.vocab());
    stats = Statistics::Compute(store);
  }
};

Workload& Lubm() {
  static Workload& w = *new Workload();
  return w;
}

/// Postgres-like with the emulated latency model zeroed.
EngineProfile Fast() {
  EngineProfile p = PostgresLikeProfile();
  p.tuple_us_per_row = 0.0;
  p.union_term_overhead_us = 0.0;
  p.materialization_us_per_row = 0.0;
  p.max_union_terms = 1u << 20;
  p.timeout_seconds = 300.0;
  return p;
}

EngineProfile FastVector(bool hierarchy_ranges = false) {
  EngineProfile p = Vectorized(Fast());
  p.hierarchy_ranges = hierarchy_ranges;
  return p;
}

PlanNode* FindKind(PlanNode* node, PlanNodeKind kind) {
  if (node == nullptr) return nullptr;
  if (node->kind == kind) return node;
  for (auto& child : node->children) {
    if (PlanNode* found = FindKind(child.get(), kind)) return found;
  }
  return nullptr;
}

PlanNode* FindKind(PhysicalPlan* plan, PlanNodeKind kind) {
  for (auto& shared : plan->shared_subplans) {
    if (PlanNode* found = FindKind(shared.get(), kind)) return found;
  }
  return FindKind(plan->root.get(), kind);
}

/// Minimal in-test view resolver: remembers every offered fragment result
/// and serves it back on Lookup, so the second execution of a stamped plan
/// reads the view.
class StubViewResolver : public ViewResolver {
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

bool HasRule(const PlanVerifyResult& result, const std::string& rule) {
  for (const PlanViolation& v : result.violations) {
    if (v.rule == rule) return true;
  }
  return false;
}

class PlanVerifierTest : public ::testing::Test {
 protected:
  Query MustParse(const std::string& text) {
    Result<Query> q = ParseQuery(text, &Lubm().graph.dict());
    EXPECT_TRUE(q.ok()) << q.status().ToString();
    return q.TakeValue();
  }

  UnionQuery Reformulate(Query* query) {
    Reformulator reformulator(&Lubm().graph.schema(), &Lubm().graph.vocab());
    Result<UnionQuery> ucq =
        reformulator.ReformulateCQ(query->cq, &query->vars);
    EXPECT_TRUE(ucq.ok()) << ucq.status().ToString();
    return ucq.TakeValue();
  }

  /// A verified-clean UCQ plan of the ub:Professor type query under
  /// `profile`; ~50 disjuncts in the fine-grained workload.
  PhysicalPlan ProfessorUcqPlan(const EngineProfile& profile) {
    Query q = MustParse(LubmQuerySet()[1].text);  // Q02: rdf:type Professor.
    UnionQuery ucq = Reformulate(&q);
    EXPECT_GT(ucq.size(), 10u);
    Evaluator engine(&Lubm().store, &profile);
    PhysicalPlan plan = engine.planner().PlanUCQ(ucq);
    PlanVerifyResult clean = VerifyPlan(plan, &Lubm().store,
                                        &Lubm().graph.dict());
    EXPECT_TRUE(clean.ok()) << clean.ToString();
    return plan;
  }

  /// A verified-clean plan containing kSharedRef nodes: the multi-atom
  /// motivating query under the batch profile, whose disjuncts repeat
  /// scans the planner factors into execute-once shared subplans.
  /// (Single-atom unions like the Professor query have nothing to share.)
  PhysicalPlan SharedUcqPlan() {
    Query q = MustParse(LubmQuerySet()[6].text);
    UnionQuery ucq = Reformulate(&q);
    const EngineProfile profile = FastVector();
    Evaluator engine(&Lubm().store, &profile);
    PhysicalPlan plan = engine.planner().PlanUCQ(ucq);
    EXPECT_FALSE(plan.shared_subplans.empty());
    PlanVerifyResult clean = VerifyPlan(plan, &Lubm().store,
                                        &Lubm().graph.dict());
    EXPECT_TRUE(clean.ok()) << clean.ToString();
    return plan;
  }

  /// Expects `plan` to be rejected with at least one violation under
  /// `rule`; returns the result for further inspection.
  PlanVerifyResult ExpectRejected(const PhysicalPlan& plan,
                                  const std::string& rule) {
    PlanVerifyResult result =
        VerifyPlan(plan, &Lubm().store, &Lubm().graph.dict());
    EXPECT_FALSE(result.ok())
        << "corrupted plan passed verification (expected rule '" << rule
        << "')";
    EXPECT_TRUE(HasRule(result, rule))
        << "expected a '" << rule << "' violation, got:\n"
        << result.ToString();
    return result;
  }
};

// ---------------------------------------------------------------------------
// Every planner output verifies clean.

TEST_F(PlanVerifierTest, PlannerPlansVerifyCleanAcrossProfiles) {
  const EngineProfile plain = Fast();
  const EngineProfile vector = FastVector();
  const EngineProfile ranges = FastVector(/*hierarchy_ranges=*/true);
  // Single-atom small and large fan-out, plus the multi-atom motivating
  // query; plain, batch+shared, and hierarchy-range engines.
  for (size_t qi : {size_t{0}, size_t{1}, size_t{6}}) {
    Query q = MustParse(LubmQuerySet()[qi].text);
    UnionQuery ucq = Reformulate(&q);
    for (const EngineProfile* profile : {&plain, &vector, &ranges}) {
      Evaluator engine(&Lubm().store, profile);
      PhysicalPlan cq_plan = engine.planner().PlanCQ(q.cq);
      PlanVerifyResult cq_result =
          VerifyPlan(cq_plan, &Lubm().store, &Lubm().graph.dict());
      EXPECT_TRUE(cq_result.ok())
          << LubmQuerySet()[qi].name << " CQ / " << profile->name << ":\n"
          << cq_result.ToString();
      PhysicalPlan ucq_plan = engine.planner().PlanUCQ(ucq);
      PlanVerifyResult ucq_result =
          VerifyPlan(ucq_plan, &Lubm().store, &Lubm().graph.dict());
      EXPECT_TRUE(ucq_result.ok())
          << LubmQuerySet()[qi].name << " UCQ / " << profile->name << ":\n"
          << ucq_result.ToString();
    }
  }
}

TEST_F(PlanVerifierTest, SharedSubplanPlansVerifyClean) {
  // SharedUcqPlan verifies clean internally; pin that factoring actually
  // produced kSharedRef nodes so the shared-resolution rules were hit.
  PhysicalPlan plan = SharedUcqPlan();
  ASSERT_NE(FindKind(&plan, PlanNodeKind::kSharedRef), nullptr);
}

TEST_F(PlanVerifierTest, ScanRangePlansVerifyClean) {
  PhysicalPlan plan = ProfessorUcqPlan(FastVector(/*hierarchy_ranges=*/true));
  ASSERT_NE(FindKind(&plan, PlanNodeKind::kScanRange), nullptr)
      << "hierarchy profile built no ScanRange node; collapse regressed?";
}

TEST_F(PlanVerifierTest, OverLimitPlansVerifyClean) {
  EngineProfile tight = Fast();
  tight.max_union_terms = 4;
  Query q = MustParse(LubmQuerySet()[1].text);
  UnionQuery ucq = Reformulate(&q);
  ASSERT_GT(ucq.size(), 4u);
  Evaluator engine(&Lubm().store, &tight);
  PhysicalPlan plan = engine.planner().PlanUCQ(ucq);
  ASSERT_FALSE(plan.feasibility.ok());
  PlanVerifyResult result =
      VerifyPlan(plan, &Lubm().store, &Lubm().graph.dict());
  EXPECT_TRUE(result.ok()) << result.ToString();
}

TEST_F(PlanVerifierTest, GcovJucqPlanVerifiesCleanAndGatePasses) {
  Workload& w = Lubm();
  EngineProfile profile = Fast();
  QueryAnswerer answerer(&w.store, &w.sat.store, &w.graph.schema(),
                         &w.graph.vocab(), &w.stats, &profile);
  Query q = MustParse(LubmQuerySet()[6].text);  // Multi-atom motivating q1.
  AnswerOptions options;
  options.strategy = Strategy::kGcov;
  options.keep_plan = true;
  options.verify_plans = true;  // The Release gate must pass valid plans.
  Result<AnswerOutcome> outcome = answerer.Answer(q, options);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  ASSERT_TRUE(outcome.ValueOrDie().plan.has_value());
  PlanVerifyResult result = VerifyPlan(*outcome.ValueOrDie().plan, &w.store,
                                       &w.graph.dict());
  EXPECT_TRUE(result.ok()) << result.ToString();
}

// ---------------------------------------------------------------------------
// Corruption matrix: each mutation of a clean plan is rejected under the
// expected rule.

TEST_F(PlanVerifierTest, RejectsDuplicateNodeIds) {
  PhysicalPlan plan = ProfessorUcqPlan(Fast());
  ASSERT_GE(plan.root->children.size(), 1u);
  plan.root->children[0]->id = plan.root->id;
  ExpectRejected(plan, "node-ids");
}

TEST_F(PlanVerifierTest, RejectsWrongNodeCount) {
  PhysicalPlan plan = ProfessorUcqPlan(Fast());
  plan.num_nodes += 3;
  ExpectRejected(plan, "node-ids");
}

TEST_F(PlanVerifierTest, RejectsMissingChild) {
  PhysicalPlan plan = ProfessorUcqPlan(Fast());
  plan.root->children.clear();  // Dedup loses its input.
  ExpectRejected(plan, "arity");
}

TEST_F(PlanVerifierTest, RejectsDanglingSharedRef) {
  PhysicalPlan plan = SharedUcqPlan();
  PlanNode* ref = FindKind(&plan, PlanNodeKind::kSharedRef);
  ASSERT_NE(ref, nullptr);
  ref->shared_index = 999;
  ExpectRejected(plan, "shared-refs");
}

TEST_F(PlanVerifierTest, RejectsSharedRefSchemaMismatch) {
  PhysicalPlan plan = SharedUcqPlan();
  PlanNode* ref = FindKind(&plan, PlanNodeKind::kSharedRef);
  ASSERT_NE(ref, nullptr);
  ref->out_columns.push_back(4242);  // No longer the target's schema.
  // Schema disagreements are arity-rule violations wherever they occur;
  // the diagnostic still names the shared target schema.
  PlanVerifyResult result = ExpectRejected(plan, "arity");
  EXPECT_NE(result.ToString().find("shared target schema"),
            std::string::npos)
      << result.ToString();
}

TEST_F(PlanVerifierTest, RejectsInvertedHidRange) {
  PhysicalPlan plan = ProfessorUcqPlan(FastVector(/*hierarchy_ranges=*/true));
  PlanNode* range = FindKind(&plan, PlanNodeKind::kScanRange);
  ASSERT_NE(range, nullptr);
  std::swap(range->range_lo, range->range_hi);
  ExpectRejected(plan, "scan-range");
}

TEST_F(PlanVerifierTest, RejectsHidRangeBeyondTheEncoding) {
  PhysicalPlan plan = ProfessorUcqPlan(FastVector(/*hierarchy_ranges=*/true));
  PlanNode* range = FindKind(&plan, PlanNodeKind::kScanRange);
  ASSERT_NE(range, nullptr);
  range->range_hi = 1u << 30;  // Far past the hid space.
  ExpectRejected(plan, "scan-range");
}

TEST_F(PlanVerifierTest, RejectsNonDrivingScanRange) {
  PhysicalPlan plan = ProfessorUcqPlan(FastVector(/*hierarchy_ranges=*/true));
  PlanNode* range = FindKind(&plan, PlanNodeKind::kScanRange);
  ASSERT_NE(range, nullptr);
  range->driving_scan = false;
  ExpectRejected(plan, "scan-range");
}

TEST_F(PlanVerifierTest, RejectsUnboundProjectionHead) {
  Query q = MustParse(LubmQuerySet()[6].text);
  const EngineProfile profile = Fast();
  Evaluator engine(&Lubm().store, &profile);
  PhysicalPlan plan = engine.planner().PlanCQ(q.cq);
  PlanNode* project = FindKind(&plan, PlanNodeKind::kProject);
  ASSERT_NE(project, nullptr);
  // A head variable no child produces and no binding covers.
  project->head.push_back(4242);
  project->out_columns.push_back(4242);
  ExpectRejected(plan, "bindings");
}

TEST_F(PlanVerifierTest, RejectsUnboundUnionHead) {
  PhysicalPlan plan = ProfessorUcqPlan(Fast());
  PlanNode* union_node = FindKind(&plan, PlanNodeKind::kUnionAll);
  ASSERT_NE(union_node, nullptr);
  union_node->head.push_back(4242);
  union_node->out_columns.push_back(4242);
  ExpectRejected(plan, "bindings");
}

TEST_F(PlanVerifierTest, RejectsOversizedVectorWidth) {
  PhysicalPlan plan = ProfessorUcqPlan(FastVector());
  plan.vector_width = kBatchRows * 2;  // Selection vectors hold one batch.
  ExpectRejected(plan, "batch-width");
}

TEST_F(PlanVerifierTest, RejectsDisjunctChildMismatch) {
  PhysicalPlan plan = ProfessorUcqPlan(Fast());
  PlanNode* union_node = FindKind(&plan, PlanNodeKind::kUnionAll);
  ASSERT_NE(union_node, nullptr);
  ASSERT_FALSE(union_node->disjuncts.empty());
  union_node->disjuncts.pop_back();  // Merge order now undefined.
  ExpectRejected(plan, "parallel");
}

TEST_F(PlanVerifierTest, RejectsFeasibilityMismatchBothWays) {
  // Feasible plan claiming infeasibility...
  PhysicalPlan plan = ProfessorUcqPlan(Fast());
  plan.feasibility = Status::QueryTooComplex("forged");
  ExpectRejected(plan, "feasibility");

  // ...and an over-limit plan claiming to be executable.
  EngineProfile tight = Fast();
  tight.max_union_terms = 4;
  Query q = MustParse(LubmQuerySet()[1].text);
  UnionQuery ucq = Reformulate(&q);
  Evaluator engine(&Lubm().store, &tight);
  PhysicalPlan over = engine.planner().PlanUCQ(ucq);
  ASSERT_FALSE(over.feasibility.ok());
  over.feasibility = Status::OK();
  ExpectRejected(over, "feasibility");
}

TEST_F(PlanVerifierTest, RejectsDuplicateOutputColumns) {
  PhysicalPlan plan = ProfessorUcqPlan(Fast());
  ASSERT_FALSE(plan.root->out_columns.empty());
  plan.root->out_columns.push_back(plan.root->out_columns[0]);
  ExpectRejected(plan, "arity");
}

TEST_F(PlanVerifierTest, RejectsInvalidAtomConstant) {
  PhysicalPlan plan = ProfessorUcqPlan(Fast());
  PlanNode* scan = FindKind(&plan, PlanNodeKind::kAtomScan);
  ASSERT_NE(scan, nullptr);
  ASSERT_FALSE(scan->atom.p.is_var());
  scan->atom.p = PatternTerm();  // kInvalidValueId: matches nothing.
  ExpectRejected(plan, "dict-domain");
}

TEST_F(PlanVerifierTest, RejectsConstantsOutsideTheDictionary) {
  PhysicalPlan plan = ProfessorUcqPlan(Fast());
  PlanNode* scan = FindKind(&plan, PlanNodeKind::kAtomScan);
  ASSERT_NE(scan, nullptr);
  ASSERT_FALSE(scan->atom.p.is_var());
  scan->atom.p = PatternTerm::Const(
      static_cast<ValueId>(Lubm().graph.dict().size() + 7));
  ExpectRejected(plan, "dict-domain");
}

TEST_F(PlanVerifierTest, RejectsNonFiniteEstimates) {
  PhysicalPlan plan = ProfessorUcqPlan(Fast());
  plan.root->est_rows = std::nan("");
  ExpectRejected(plan, "estimates");
}

// --- Views: a component served from a view keeps its planned union. ---

TEST_F(PlanVerifierTest, ViewSubstitutedPlansVerifyClean) {
  // The resolver stamps the component root; the first execution offers its
  // rows, the second is served from them. The plan itself never changes,
  // so it verifies clean before and after a view hit.
  StubViewResolver resolver;
  Query q = MustParse(LubmQuerySet()[1].text);
  UnionQuery ucq = Reformulate(&q);
  const EngineProfile profile = Fast();
  Evaluator engine(&Lubm().store, &profile);
  engine.set_views(&resolver);
  PhysicalPlan plan = engine.planner().PlanUCQ(ucq);
  EXPECT_FALSE(plan.root->view_signature.empty());
  for (size_t run = 0; run < 2; ++run) {
    EvalMetrics metrics;
    Result<Relation> rows = engine.ExecutePlan(&plan, &metrics);
    ASSERT_TRUE(rows.ok()) << rows.status().ToString();
    EXPECT_EQ(metrics.view_hits, run);
    PlanVerifyResult clean =
        VerifyPlan(plan, &Lubm().store, &Lubm().graph.dict());
    EXPECT_TRUE(clean.ok()) << clean.ToString();
  }
}

// ---------------------------------------------------------------------------
// Diagnostics and hooks.

TEST_F(PlanVerifierTest, RenderingMarksTheOffendingNode) {
  PhysicalPlan plan = SharedUcqPlan();
  PlanNode* ref = FindKind(&plan, PlanNodeKind::kSharedRef);
  ASSERT_NE(ref, nullptr);
  ref->shared_index = 999;
  PlanVerifyResult result =
      VerifyPlan(plan, &Lubm().store, &Lubm().graph.dict());
  ASSERT_FALSE(result.ok());
  const std::string rendering = RenderPlanWithViolations(plan, result);
  EXPECT_NE(rendering.find("<-- VIOLATION [shared-refs]"), std::string::npos)
      << rendering;
  EXPECT_NE(rendering.find("SharedRef"), std::string::npos) << rendering;
}

TEST_F(PlanVerifierTest, VerifyPlanOrErrorCarriesTheDiagnosis) {
  PhysicalPlan plan = ProfessorUcqPlan(Fast());
  plan.vector_width = kBatchRows * 4;
  Status st = VerifyPlanOrError(plan, &Lubm().store, &Lubm().graph.dict());
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInternal);
  EXPECT_NE(st.message().find("plan verification failed"), std::string::npos)
      << st.message();
  EXPECT_NE(st.message().find("batch-width"), std::string::npos)
      << st.message();
}

TEST_F(PlanVerifierTest, VerifyPlansOptionRefusesCorruptPlansInRelease) {
  // The shell/service-level gate: a corrupt plan must surface as kInternal,
  // not execute. Exercised through VerifyPlanOrError (the exact call
  // AnswerByCover makes under AnswerOptions::verify_plans).
  PhysicalPlan plan = ProfessorUcqPlan(Fast());
  plan.root->children.clear();
  Status st = VerifyPlanOrError(plan, &Lubm().store);
  EXPECT_FALSE(st.ok());
}

#ifndef RDFOPT_DISABLE_CHECKS
#ifndef NDEBUG
[[noreturn]] void ThrowOnCheckFailure(const CheckFailureInfo& info) {
  throw std::runtime_error(info.ToString());
}
#endif

TEST_F(PlanVerifierTest, DebugCheckPlanFiresOnlyInDebugBuilds) {
  PhysicalPlan plan = ProfessorUcqPlan(Fast());
  plan.num_nodes += 1;
#ifdef NDEBUG
  // Compiled out: corrupt plans pass silently (the Release gate is
  // AnswerOptions::verify_plans).
  DebugCheckPlan(plan, &Lubm().store, "test-site");
#else
  CheckFailureHandler prev = SetCheckFailureHandler(&ThrowOnCheckFailure);
  try {
    EXPECT_THROW(DebugCheckPlan(plan, &Lubm().store, "test-site"),
                 std::runtime_error);
  } catch (...) {
    SetCheckFailureHandler(prev);
    throw;
  }
  SetCheckFailureHandler(prev);
#endif
}
#endif  // RDFOPT_DISABLE_CHECKS

}  // namespace
}  // namespace rdfopt
