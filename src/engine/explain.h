#ifndef RDFOPT_ENGINE_EXPLAIN_H_
#define RDFOPT_ENGINE_EXPLAIN_H_

#include <string>

#include "cost/cardinality.h"
#include "engine/engine_profile.h"
#include "engine/plan.h"
#include "rdf/dictionary.h"
#include "sparql/query.h"

namespace rdfopt {

/// Rendering options for ExplainPlan.
struct ExplainOptions {
  /// EXPLAIN ANALYZE: append the runtime accounting the executor recorded in
  /// each plan node — actual rows plus, where nonzero, rows scanned, hash
  /// probes and bytes materialized (or "not executed" for short-circuited
  /// subtrees), and "[view hit: <sig>]" on components served from the view
  /// catalog. The plan must have been run through Evaluator::ExecutePlan
  /// first.
  bool analyze = false;
  /// With `analyze`: include each node's wall time. On for humans; golden
  /// tests turn it off, since timings are nondeterministic.
  bool analyze_timing = true;
  /// Per-union detail bound: a 2000-term UNION prints this many sampled
  /// term chains plus a "... N more term(s)" summary line.
  size_t max_union_children_shown = 3;
};

/// Human-readable rendering of a PhysicalPlan — `EXPLAIN` for the embedded
/// engine, used by the SPARQL shell and by debugging sessions around the
/// cost model. This is a pure pretty-printer: every ordering and operator
/// choice shown is read off the plan tree the executor runs, never
/// re-derived. Each operator line ends with the plan-node id (`[#7]`), the
/// correlation key to the `node` attribute on trace spans.
std::string ExplainPlan(const PhysicalPlan& plan, const VarTable& vars,
                        const Dictionary& dict,
                        const ExplainOptions& opts = {});

/// Plans `jucq` with the engine's planner and renders it (estimate-only).
/// Convenience wrapper kept for callers holding a query rather than a plan.
std::string ExplainJucqPlan(const JoinOfUnions& jucq, const VarTable& vars,
                            const Dictionary& dict,
                            const CardinalityEstimator& estimator,
                            const EngineProfile& profile,
                            size_t max_disjuncts_shown = 3);

}  // namespace rdfopt

#endif  // RDFOPT_ENGINE_EXPLAIN_H_
