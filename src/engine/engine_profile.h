#ifndef RDFOPT_ENGINE_ENGINE_PROFILE_H_
#define RDFOPT_ENGINE_ENGINE_PROFILE_H_

#include <cstddef>
#include <string>

#include "cost/cost_constants.h"

namespace rdfopt {

/// Behavioural profile of the embedded evaluation engine.
///
/// The paper runs on three external RDBMSs (PostgreSQL, DB2, MySQL) that
/// "differ significantly in their ability to handle UCQ and SCQ
/// reformulations". We reproduce those differences with profiles of one
/// embedded engine (see DESIGN.md §3): each profile sets the hard resource
/// limits that produce the paper's failure modes and carries its own
/// calibrated cost constants, which is exactly what makes the cost-based
/// cover choice engine-specific (paper §5: "we calibrate separately for each
/// system").
struct EngineProfile {
  std::string name;

  /// Hard cap on the number of union terms (disjuncts) in any UCQ shipped to
  /// the engine. Exceeding it fails with kQueryTooComplex — the analogue of
  /// DB2's "stack depth limit exceeded" on q2's 318,096-term reformulation.
  size_t max_union_terms = 100000;

  /// Memory budget, in cells (column values), across all materialized
  /// intermediates of one query. Exceeding it fails with
  /// kResourceExhausted — the analogue of the paper's I/O exceptions on
  /// failed intermediate materialization.
  size_t max_materialized_cells = 400u * 1000 * 1000;

  /// Per-tuple executor overhead in microseconds, physically consumed on
  /// every row flowing through a join or union operator; models the
  /// interpretation cost real engines pay per tuple (expression evaluation,
  /// tuple (de)forming), which is what makes plans over huge intermediate
  /// results slow regardless of algorithmic complexity.
  double tuple_us_per_row = 0.0;

  /// Per-materialized-row overhead in microseconds, physically consumed by
  /// the engine; models spooling of stored intermediates (disk-backed temp
  /// tables). High for the MySQL-like profile, which is what makes SCQ —
  /// whose components can have huge results — pathologically slow there,
  /// exactly as the paper observes.
  double materialization_us_per_row = 0.0;

  /// Per-union-term fixed overhead in microseconds, physically consumed by
  /// the engine; models per-subplan optimization/setup cost, which is what
  /// makes multi-thousand-term UCQ plans expensive on real engines even
  /// when most terms return nothing (highest for the DB2-like profile).
  double union_term_overhead_us = 0.0;

  /// Wall-clock evaluation timeout (the paper interrupts queries after 2h;
  /// scaled to our ~100x smaller data).
  double timeout_seconds = 60.0;

  /// Degree of intra-query parallelism: the total number of threads (the
  /// coordinating caller plus worker_threads - 1 workers of the process-wide
  /// WorkerPool::Shared pool) that evaluate independent UNION disjuncts and
  /// JUCQ components concurrently. Read by the executor only: plans never
  /// depend on it. 1 — the
  /// default, and what every built-in profile uses — runs the exact
  /// sequential executor the paper's single-connection RDBMS setup implies;
  /// results, metrics and EXPLAIN ANALYZE actuals are byte-identical either
  /// way (DESIGN.md §9), only wall-clock changes. Cost-model charging is
  /// thread-count-invariant, so the ECov/GCov cover choice never depends on
  /// this knob.
  size_t worker_threads = 1;

  /// Rows per execution batch (the engine's vector size, MonetDB/X100
  /// style). The per-row emulated overheads above model tuple-at-a-time
  /// interpretation — one operator dispatch, one expression evaluation, one
  /// tuple (de)forming per row. A vectorized engine pays that interpretation
  /// cost once per batch, so the evaluator divides every per-row and
  /// per-term emulated charge (and the planner the matching cost constants)
  /// by this width. 1 — the default, and what the four canonical paper
  /// profiles use — reproduces the paper's tuple-at-a-time engines exactly.
  size_t vector_width = 1;

  /// Enables the planner's union-subplan factoring pass: atom scans shared
  /// by several branches of a union become execute-once shared nodes
  /// (kSharedRef). Off for the canonical paper profiles — sharing changes
  /// per-plan costs, and the paper's engines re-evaluate each branch in
  /// isolation — and on for vectorized profiles.
  bool share_union_subplans = false;

  /// Enables the planner's hierarchy-range collapse (DESIGN.md §12): when
  /// the store carries a HierarchyEncoding, a reformulated N-branch union of
  /// per-class (per-property) scans becomes a single kScanRange interval
  /// scan plus a residual union. Off by default — including for Vectorized
  /// profiles — because it changes plan shapes and costs; opted into by the
  /// shell (`.encoding on`), benchmarks and the hierarchy test suites.
  bool hierarchy_ranges = false;

  /// Issues software prefetches ahead of the probe loops of the hash join
  /// and the radix dedup (ROADMAP "Prefetching + SIMD", first slice). Pure
  /// execution tweak: results are bit-identical either way.
  bool prefetch_probes = false;

  /// Calibrated §4.1 cost-model constants for this engine.
  CostConstants cost;
};

/// A vectorized variant of `base`: batch-at-a-time execution with the given
/// vector width (default kBatchRows = 1024) and union-subplan factoring on.
/// Per-row/per-term cost constants and emulated overheads are amortized over
/// the batch, modelling the interpretation overhead vectorization removes;
/// resource limits and timeout are inherited unchanged.
EngineProfile Vectorized(const EngineProfile& base, size_t width = 1024);

/// The three reformulation-target profiles of the experiments
/// (§5.1), plus the saturation-oriented native-store profile of §5.3.
/// Ordered as the figures list them: DB2-like, Postgres-like, MySQL-like.
const EngineProfile& Db2LikeProfile();       ///< "engine-A"
const EngineProfile& PostgresLikeProfile();  ///< "engine-B"
const EngineProfile& MysqlLikeProfile();     ///< "engine-C"
/// Saturation-only native RDF store stand-in (Virtuoso role in Fig 10).
const EngineProfile& NativeStoreProfile();

}  // namespace rdfopt

#endif  // RDFOPT_ENGINE_ENGINE_PROFILE_H_
