#ifndef RDFOPT_TESTS_HIERARCHY_WORKLOADS_H_
#define RDFOPT_TESTS_HIERARCHY_WORKLOADS_H_

// Stores with a HierarchyEncoding attached (DESIGN.md §12) and the batch
// engine profile the range-collapse tests plan and execute under. Shared by
// the hierarchy differential suite and the planner fingerprint tests, so
// both look at the same data and the same profile.

#include <cstddef>
#include <memory>

#include "engine/engine_profile.h"
#include "rdf/graph.h"
#include "rdf/hierarchy_encoding.h"
#include "storage/triple_store.h"
#include "workload/dblp.h"
#include "workload/lubm.h"

namespace rdfopt::testing {

struct HierarchyWorkload {
  Graph graph;
  TripleStore store;

  void Finish() {
    graph.FinalizeSchema();
    store = TripleStore::Build(graph.data_triples());
    store.AttachHierarchy(std::make_shared<const HierarchyEncoding>(
        HierarchyEncoding::Build(graph.schema(), graph.vocab().rdf_type)));
  }
};

inline HierarchyWorkload& LubmWorkload() {
  static HierarchyWorkload& w = *[] {
    auto* w = new HierarchyWorkload();
    LubmOptions options;
    options.num_universities = 1;
    GenerateLubm(options, &w->graph);
    w->Finish();
    return w;
  }();
  return w;
}

/// The deep-hierarchy regime the collapse targets: specialty leaf classes
/// under the professor ranks, professors typed at the leaves. 48 leaves
/// keeps the uncollapsed reference engine fast enough for the TSan job
/// while still forcing ~50-term type unions (the bench uses 240).
inline HierarchyWorkload& LubmFineGrainedWorkload() {
  static HierarchyWorkload& w = *[] {
    auto* w = new HierarchyWorkload();
    LubmOptions options;
    options.num_universities = 1;
    options.fine_grained_specializations = 48;
    GenerateLubm(options, &w->graph);
    w->Finish();
    return w;
  }();
  return w;
}

inline HierarchyWorkload& DblpWorkload() {
  static HierarchyWorkload& w = *[] {
    auto* w = new HierarchyWorkload();
    DblpOptions options;
    options.num_publications = 1500;
    GenerateDblp(options, &w->graph);
    w->Finish();
    return w;
  }();
  return w;
}

/// Diamond: TeachingProf and ResearchProf under Prof, HybridProf under
/// both, one instance typed at each. HybridProf is interval-owned by one
/// parent and a residual of the other, so a type query over the non-owning
/// parent collapses to a ScanRange branch plus a residual scan branch.
inline void BuildDiamondWorkload(HierarchyWorkload* w) {
  const char* kSc = "http://www.w3.org/2000/01/rdf-schema#subClassOf";
  const char* kType = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type";
  w->graph.AddIri("http://ex/TeachingProf", kSc, "http://ex/Prof");
  w->graph.AddIri("http://ex/ResearchProf", kSc, "http://ex/Prof");
  w->graph.AddIri("http://ex/HybridProf", kSc, "http://ex/TeachingProf");
  w->graph.AddIri("http://ex/HybridProf", kSc, "http://ex/ResearchProf");
  w->graph.AddIri("http://ex/alice", kType, "http://ex/TeachingProf");
  w->graph.AddIri("http://ex/bob", kType, "http://ex/ResearchProf");
  w->graph.AddIri("http://ex/carol", kType, "http://ex/HybridProf");
  w->Finish();
}

/// Batch engine, emulated overheads zeroed, with or without the collapse.
inline EngineProfile BatchProfile(bool hierarchy_ranges,
                                  size_t worker_threads = 1) {
  EngineProfile p = Vectorized(PostgresLikeProfile());
  p.tuple_us_per_row = 0.0;
  p.union_term_overhead_us = 0.0;
  p.materialization_us_per_row = 0.0;
  p.max_union_terms = 1u << 20;
  p.timeout_seconds = 300.0;
  p.hierarchy_ranges = hierarchy_ranges;
  p.worker_threads = worker_threads;
  return p;
}

}  // namespace rdfopt::testing

#endif  // RDFOPT_TESTS_HIERARCHY_WORKLOADS_H_
