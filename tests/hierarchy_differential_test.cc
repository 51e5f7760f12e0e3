// Differential suite for the hierarchy-range collapse (DESIGN.md §12): a
// plan whose reformulation union was collapsed to ScanRange intervals must
// produce exactly the same answer set as the uncollapsed union-of-scans
// plan, across the LUBM and DBLP evaluation query sets, on the deep
// fine-grained LUBM hierarchy (including multi-parent residual unions), at
// 1 and 4 workers, and across an epoch-crossing data update through the
// query service. Range and union plans enumerate branches in different
// orders, so cross-plan-shape comparisons sort rows canonically first;
// same-plan worker-count comparisons stay bit-identical (rows AND order).

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "engine/evaluator.h"
#include "hierarchy_workloads.h"
#include "rdf/hierarchy_encoding.h"
#include "reformulation/reformulator.h"
#include "service/query_service.h"
#include "sparql/parser.h"
#include "workload/query_sets.h"

namespace rdfopt {
namespace {

using testing::BatchProfile;
using testing::BuildDiamondWorkload;
using testing::DblpWorkload;
using testing::HierarchyWorkload;
using testing::LubmFineGrainedWorkload;
using testing::LubmWorkload;

constexpr size_t kMaxTermsCompared = 4096;

std::vector<std::vector<ValueId>> SortedRows(const Relation& rel) {
  std::vector<std::vector<ValueId>> rows(rel.num_rows());
  for (size_t r = 0; r < rel.num_rows(); ++r) {
    rows[r].reserve(rel.arity());
    for (size_t c = 0; c < rel.arity(); ++c) {
      rows[r].push_back(rel.at(r, c));
    }
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

void ExpectSameRowSet(const Relation& a, const Relation& b,
                      const std::string& label) {
  ASSERT_EQ(a.columns(), b.columns()) << label;
  ASSERT_EQ(a.num_rows(), b.num_rows()) << label;
  EXPECT_EQ(SortedRows(a), SortedRows(b)) << label;
}

void ExpectIdenticalRelations(const Relation& a, const Relation& b,
                              const std::string& label) {
  ASSERT_EQ(a.columns(), b.columns()) << label;
  ASSERT_EQ(a.num_rows(), b.num_rows()) << label;
  for (size_t r = 0; r < a.num_rows(); ++r) {
    for (size_t c = 0; c < a.arity(); ++c) {
      ASSERT_EQ(a.at(r, c), b.at(r, c))
          << label << " row " << r << " col " << c;
    }
  }
}

/// For every in-range query of `set`: the range-collapsed engine must agree
/// with the plain union engine on the answer set, and with itself
/// bit-identically at 1 vs 4 workers. `*collapsed` counts queries whose
/// plan actually collapsed at least one union term.
void RunDifferential(HierarchyWorkload* w,
                     const std::vector<BenchmarkQuery>& set,
                     size_t* collapsed) {
  Reformulator reformulator(&w->graph.schema(), &w->graph.vocab());
  EngineProfile union_profile = BatchProfile(false);
  EngineProfile range1 = BatchProfile(true, 1);
  EngineProfile range4 = BatchProfile(true, 4);
  Evaluator union_engine(&w->store, &union_profile);
  Evaluator range_engine1(&w->store, &range1);
  Evaluator range_engine4(&w->store, &range4);

  *collapsed = 0;
  for (const BenchmarkQuery& bq : set) {
    Result<Query> parsed = ParseQuery(bq.text, &w->graph.dict());
    ASSERT_TRUE(parsed.ok()) << bq.name << ": " << parsed.status().ToString();
    Query q = parsed.TakeValue();
    Result<UnionQuery> ucq = reformulator.ReformulateCQ(q.cq, &q.vars);
    if (!ucq.ok() || ucq.ValueOrDie().size() > kMaxTermsCompared) {
      continue;  // Over the differential's term budget; skip, don't fail.
    }

    PhysicalPlan range_plan = range_engine1.planner().PlanUCQ(ucq.ValueOrDie());
    if (range_plan.union_terms < ucq.ValueOrDie().size()) {
      ++*collapsed;
    }

    Result<Relation> reference =
        union_engine.EvaluateUCQ(ucq.ValueOrDie(), nullptr);
    ASSERT_TRUE(reference.ok())
        << bq.name << ": " << reference.status().ToString();
    Result<Relation> range_seq =
        range_engine1.EvaluateUCQ(ucq.ValueOrDie(), nullptr);
    ASSERT_TRUE(range_seq.ok())
        << bq.name << ": " << range_seq.status().ToString();
    Result<Relation> range_par =
        range_engine4.EvaluateUCQ(ucq.ValueOrDie(), nullptr);
    ASSERT_TRUE(range_par.ok())
        << bq.name << ": " << range_par.status().ToString();

    ExpectSameRowSet(reference.ValueOrDie(), range_seq.ValueOrDie(),
                     bq.name + " (range vs union)");
    ExpectIdenticalRelations(range_seq.ValueOrDie(), range_par.ValueOrDie(),
                             bq.name + " (range, 1 vs 4 workers)");
  }
}

TEST(HierarchyDifferentialTest, LubmQuerySetSameAnswers) {
  size_t collapsed = 0;
  RunDifferential(&LubmWorkload(), LubmQuerySet(), &collapsed);
  // The stock LUBM ontology already has collapsible type hierarchies; if no
  // plan collapses the differential is vacuous.
  EXPECT_GE(collapsed, 1u);
}

TEST(HierarchyDifferentialTest, LubmFineGrainedQuerySetSameAnswers) {
  size_t collapsed = 0;
  RunDifferential(&LubmFineGrainedWorkload(), LubmQuerySet(), &collapsed);
  EXPECT_GE(collapsed, 1u);
}

TEST(HierarchyDifferentialTest, DblpQuerySetSameAnswers) {
  size_t collapsed = 0;
  RunDifferential(&DblpWorkload(), DblpQuerySet(), &collapsed);
}

TEST(HierarchyDifferentialTest, MultiParentResidualBranchesStayCorrect) {
  // Diamond: TeachingProf and ResearchProf under Prof, HybridProf under
  // both. HybridProf is interval-owned by one parent and a residual of the
  // other, so a query over the non-owning parent must execute a ScanRange
  // branch PLUS a residual scan branch — and still match the plain union.
  HierarchyWorkload w;
  BuildDiamondWorkload(&w);

  Reformulator reformulator(&w.graph.schema(), &w.graph.vocab());
  EngineProfile union_profile = BatchProfile(false);
  EngineProfile range_profile = BatchProfile(true);
  Evaluator union_engine(&w.store, &union_profile);
  Evaluator range_engine(&w.store, &range_profile);

  for (const char* cls :
       {"http://ex/Prof", "http://ex/TeachingProf", "http://ex/ResearchProf"}) {
    const std::string text =
        std::string("SELECT ?x WHERE { ?x rdf:type <") + cls + "> }";
    Result<Query> parsed = ParseQuery(text, &w.graph.dict());
    ASSERT_TRUE(parsed.ok()) << cls;
    Query q = parsed.TakeValue();
    Result<UnionQuery> ucq = reformulator.ReformulateCQ(q.cq, &q.vars);
    ASSERT_TRUE(ucq.ok()) << cls;

    Result<Relation> reference =
        union_engine.EvaluateUCQ(ucq.ValueOrDie(), nullptr);
    Result<Relation> ranged =
        range_engine.EvaluateUCQ(ucq.ValueOrDie(), nullptr);
    ASSERT_TRUE(reference.ok()) << cls;
    ASSERT_TRUE(ranged.ok()) << cls;
    ExpectSameRowSet(reference.ValueOrDie(), ranged.ValueOrDie(), cls);
  }

  // The non-owning diamond parent keeps exactly one residual.
  const HierarchyEncoding& enc = *w.store.hierarchy();
  const ValueId teaching = w.graph.dict().InternIri("http://ex/TeachingProf");
  const ValueId research = w.graph.dict().InternIri("http://ex/ResearchProf");
  EXPECT_EQ(enc.ClassResiduals(teaching).size() +
                enc.ClassResiduals(research).size(),
            1u);
}

TEST(HierarchyDifferentialTest, EpochCrossingReencodeThroughService) {
  // A data-only update must carry the hierarchy encoding to the new epoch's
  // snapshot (same hid assignment, rebuilt shadow index) and answers must
  // reflect the new triples through the collapsed plan.
  Graph graph;
  const char* kSc = "http://www.w3.org/2000/01/rdf-schema#subClassOf";
  const char* kType = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type";
  graph.AddIri("http://ex/Student", kSc, "http://ex/Person");
  graph.AddIri("http://ex/Professor", kSc, "http://ex/Person");
  graph.AddIri("http://ex/alice", kType, "http://ex/Student");
  graph.AddIri("http://ex/bob", kType, "http://ex/Professor");

  QueryService range_service(&graph, BatchProfile(true));
  QueryService union_service(&graph, BatchProfile(false));
  const std::string q = "SELECT ?x WHERE { ?x rdf:type <http://ex/Person> }";

  Result<ServiceOutcome> r1 = range_service.AnswerText(q);
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  EXPECT_EQ(r1.ValueOrDie().answers.num_rows(), 2u);

  // Data-only update: a new Student. The schema is unchanged, so the update
  // takes the merge path and must re-attach the prior epoch's encoding.
  Triple t;
  t.s = graph.dict().InternIri("http://ex/carol");
  t.p = graph.dict().InternIri(kType);
  t.o = graph.dict().InternIri("http://ex/Student");
  ASSERT_TRUE(range_service.ApplyUpdate({t}).ok());
  ASSERT_TRUE(union_service.ApplyUpdate({t}).ok());
  EXPECT_EQ(range_service.epoch(), 1u);

  Result<ServiceOutcome> r2 = range_service.AnswerText(q);
  Result<ServiceOutcome> u2 = union_service.AnswerText(q);
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  ASSERT_TRUE(u2.ok()) << u2.status().ToString();
  EXPECT_EQ(r2.ValueOrDie().answers.num_rows(), 3u);
  ExpectSameRowSet(r2.ValueOrDie().answers, u2.ValueOrDie().answers,
                   "epoch-1 range vs union");

  // Schema-crossing update: a new subclass plus an instance forces a full
  // rebuild, which re-derives the encoding from the new schema.
  std::vector<Triple> delta(2);
  delta[0].s = graph.dict().InternIri("http://ex/Postdoc");
  delta[0].p = graph.dict().InternIri(kSc);
  delta[0].o = graph.dict().InternIri("http://ex/Person");
  delta[1].s = graph.dict().InternIri("http://ex/dana");
  delta[1].p = graph.dict().InternIri(kType);
  delta[1].o = graph.dict().InternIri("http://ex/Postdoc");
  ASSERT_TRUE(range_service.ApplyUpdate(delta).ok());
  ASSERT_TRUE(union_service.ApplyUpdate(delta).ok());

  Result<ServiceOutcome> r3 = range_service.AnswerText(q);
  Result<ServiceOutcome> u3 = union_service.AnswerText(q);
  ASSERT_TRUE(r3.ok()) << r3.status().ToString();
  ASSERT_TRUE(u3.ok()) << u3.status().ToString();
  EXPECT_EQ(r3.ValueOrDie().answers.num_rows(), 4u);
  ExpectSameRowSet(r3.ValueOrDie().answers, u3.ValueOrDie().answers,
                   "epoch-2 range vs union");
}

}  // namespace
}  // namespace rdfopt
