#include "engine/evaluator.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <utility>

#include "common/metrics.h"
#include "common/trace.h"
#include "cost/feedback.h"
#include "engine/operators.h"

namespace rdfopt {

namespace {
/// Registry epilogue of one Evaluate* call: the counter deltas it produced
/// plus its latency observation. `before` is the caller-supplied struct's
/// state at entry (callers may pass an accumulating EvalMetrics).
void RecordEngineMetrics(const EvalMetrics& after, const EvalMetrics& before) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  static MetricCounter* evaluations =
      registry.GetCounter("engine.evaluations");
  static MetricCounter* rows_scanned =
      registry.GetCounter("engine.rows_scanned");
  static MetricCounter* join_input_rows =
      registry.GetCounter("engine.join_input_rows");
  static MetricCounter* hash_probes =
      registry.GetCounter("engine.hash_probes");
  static MetricCounter* union_terms =
      registry.GetCounter("engine.union_terms");
  static MetricCounter* rows_materialized =
      registry.GetCounter("engine.rows_materialized");
  static MetricCounter* bytes_materialized =
      registry.GetCounter("engine.bytes_materialized");
  static MetricCounter* duplicates_removed =
      registry.GetCounter("engine.duplicates_removed");
  static MetricCounter* range_rows_scanned =
      registry.GetCounter("engine.range_rows_scanned");
  static MetricCounter* union_terms_collapsed =
      registry.GetCounter("engine.union_terms_collapsed");
  static MetricHistogram* evaluate_ms =
      registry.GetHistogram("engine.evaluate_ms");
  // The windowed twin of engine.evaluate_ms: p99 over the last minute, the
  // alerting-grade signal exported via `!prom` (see DESIGN.md §8).
  static MetricWindowedHistogram* evaluate_ms_window =
      registry.GetWindowedHistogram("engine.evaluate_ms");
  evaluations->Increment();
  rows_scanned->Add(after.rows_scanned - before.rows_scanned);
  join_input_rows->Add(after.join_input_rows - before.join_input_rows);
  hash_probes->Add(after.hash_probes - before.hash_probes);
  union_terms->Add(after.union_terms - before.union_terms);
  rows_materialized->Add(after.rows_materialized - before.rows_materialized);
  bytes_materialized->Add(after.bytes_materialized -
                          before.bytes_materialized);
  duplicates_removed->Add(after.duplicates_removed -
                          before.duplicates_removed);
  range_rows_scanned->Add(after.range_rows_scanned -
                          before.range_rows_scanned);
  union_terms_collapsed->Add(after.union_terms_collapsed -
                             before.union_terms_collapsed);
  evaluate_ms->Observe(after.elapsed_ms - before.elapsed_ms);
  evaluate_ms_window->Observe(after.elapsed_ms - before.elapsed_ms);
}

bool IsConstantAtom(const TriplePattern& atom) {
  return !atom.s.is_var() && !atom.p.is_var() && !atom.o.is_var();
}

/// A zero-arity relation with a single (true) row.
Relation TrueRow() {
  Relation rel{std::vector<VarId>{}};
  rel.AppendEmptyRow();
  return rel;
}

void NoteResult(PlanNode* node, const Relation& rel) {
  node->actual_rows = rel.num_rows();
  node->executed = true;
}

// Always-on per-operator accounting (ISSUE 6): every executed plan carries
// per-node wall time and resource counters, not just EXPLAIN ANALYZE runs.
// RDFOPT_DISABLE_NODE_TELEMETRY compiles the whole substrate out — the
// baseline build of the overhead benchmark (BENCH_observability.json), never
// the shipping configuration. Safe under pooled execution: each plan node is
// executed by exactly one task (the same invariant NoteResult's actual_rows
// writes rely on).
#ifndef RDFOPT_DISABLE_NODE_TELEMETRY
inline constexpr bool kNodeTelemetry = true;

/// Scope timer writing the node's subtree wall time on destruction.
class NodeTimer {
 public:
  explicit NodeTimer(PlanNode* node) : node_(node) {}
  ~NodeTimer() { node_->actual_ms = timer_.ElapsedMillis(); }

 private:
  PlanNode* node_;
  Stopwatch timer_;
};
#else
inline constexpr bool kNodeTelemetry = false;

class NodeTimer {
 public:
  explicit NodeTimer(PlanNode*) {}
};
#endif

bool HasSharedRef(const PlanNode& node) {
  if (node.kind == PlanNodeKind::kSharedRef) return true;
  return std::any_of(node.children.begin(), node.children.end(),
                     [](const auto& child) { return HasSharedRef(*child); });
}

/// View-stamped component roots whose union reads a shared subplan.
void CollectSharedSubplanOwners(const PlanNode& node,
                                std::vector<const PlanNode*>* out) {
  if (node.kind == PlanNodeKind::kDedup && !node.view_signature.empty()) {
    if (HasSharedRef(node)) out->push_back(&node);
    return;
  }
  for (const auto& child : node.children) {
    CollectSharedSubplanOwners(*child, out);
  }
}

/// Marks the shared subplans referenced outside the `served` components.
void MarkNeededSharedSubplans(const PlanNode& node,
                              const std::vector<const PlanNode*>& served,
                              std::vector<bool>* needed) {
  if (std::find(served.begin(), served.end(), &node) != served.end()) return;
  if (node.kind == PlanNodeKind::kSharedRef && node.shared_index >= 0 &&
      static_cast<size_t>(node.shared_index) < needed->size()) {
    (*needed)[static_cast<size_t>(node.shared_index)] = true;
  }
  for (const auto& child : node.children) {
    MarkNeededSharedSubplans(*child, served, needed);
  }
}
}  // namespace

Status Evaluator::CheckTimeout(const Exec& exec) const {
  // One shared deadline and one cancellation flag per query: every worker
  // task polls both here, so a timeout or a failure anywhere drains the
  // whole query promptly (first-error-wins; kCancelled never outranks the
  // root cause, see WorkerPool::ParallelFor).
  if (exec.shared->cancelled.load(std::memory_order_acquire)) {
    return Status::Cancelled("evaluation abandoned after a concurrent "
                             "failure on " + profile_->name);
  }
  if (exec.shared->timer.ElapsedSeconds() > profile_->timeout_seconds) {
    return Status::Timeout("query exceeded the " +
                           std::to_string(profile_->timeout_seconds) +
                           "s timeout on " + profile_->name);
  }
  return Status::OK();
}

void Evaluator::SpinFor(double micros) {
  if (micros <= 0.0) return;
  Stopwatch sw;
  while (sw.ElapsedMicros() < static_cast<int64_t>(micros)) {
    // Busy wait: emulated fixed plan overhead must consume real time.
  }
}

Status Evaluator::ChargeMaterialization(const Relation& rel,
                                        Exec* exec) const {
  exec->metrics->rows_materialized += rel.num_rows();
  // The memory budget is one atomic cell counter shared by all workers of
  // the query, so concurrent materializations are charged exactly once each.
  const size_t charged =
      exec->shared->materialized_cells.fetch_add(
          rel.num_cells(), std::memory_order_relaxed) +
      rel.num_cells();
  if (charged > profile_->max_materialized_cells) {
    return Status::ResourceExhausted(
        "materialized intermediates exceed the memory budget of " +
        std::to_string(profile_->max_materialized_cells) + " cells on " +
        profile_->name);
  }
  // Physical emulation of engines that spool intermediates (see
  // EngineProfile::materialization_us_per_row).
  SpinFor(profile_->materialization_us_per_row *
          static_cast<double>(rel.num_rows()));
  return Status::OK();
}

Result<RelHandle> Evaluator::ExecAtomScan(PlanNode* node, Exec* exec) const {
  const TriplePattern& atom = node->atom;
  if (IsConstantAtom(atom)) {
    // Boolean existence guard: a point lookup, free of charge (neither
    // metrics nor emulated per-tuple work — the engine folds constant
    // filters into plan constants).
    Relation out{std::vector<VarId>{}};
    if (store_->CountMatches(atom.s.value(), atom.p.value(),
                             atom.o.value()) > 0) {
      out.AppendEmptyRow();
    }
    NoteResult(node, out);
    return RelHandle(std::move(out));
  }
  RDFOPT_RETURN_NOT_OK(CheckTimeout(*exec));
  TraceSpan span("op.scan");
  span.Attr("node", node->id);
  size_t scan_size = ScanAtomInputSize(*store_, atom);
  exec->metrics->rows_scanned += scan_size;
  if constexpr (kNodeTelemetry) node->rows_scanned = scan_size;
  // The pipelined driving scan pays per-tuple executor overhead by itself;
  // a scan feeding a hash join is charged at the join.
  if (node->driving_scan) {
    SpinFor(profile_->tuple_us_per_row * static_cast<double>(scan_size));
  }
  Relation out = ScanAtom(*store_, atom);
  span.Attr("rows_scanned", scan_size);
  span.Attr("output_rows", out.num_rows());
  NoteResult(node, out);
  return RelHandle(std::move(out));
}

Result<RelHandle> Evaluator::ExecScanRange(PlanNode* node, Exec* exec) const {
  RDFOPT_RETURN_NOT_OK(CheckTimeout(*exec));
  TraceSpan span("op.scan_range");
  span.Attr("node", node->id);
  const size_t scan_size = ScanRangeInputSize(
      *store_, node->range_class_space, node->range_lo, node->range_hi);
  exec->metrics->rows_scanned += scan_size;
  exec->metrics->range_rows_scanned += scan_size;
  if constexpr (kNodeTelemetry) node->rows_scanned = scan_size;
  // Like any driving scan: per-tuple executor overhead paid here, charged
  // once for the whole interval — this, not fewer rows, is the collapse win.
  if (node->driving_scan) {
    SpinFor(profile_->tuple_us_per_row * static_cast<double>(scan_size));
  }
  Relation out = ScanRange(*store_, node->atom, node->range_class_space,
                           node->range_lo, node->range_hi);
  span.Attr("rows_scanned", scan_size);
  span.Attr("range_terms", node->range_terms);
  span.Attr("output_rows", out.num_rows());
  NoteResult(node, out);
  return RelHandle(std::move(out));
}

Result<RelHandle> Evaluator::ExecSharedRef(PlanNode* node, Exec* exec) const {
  const std::vector<Relation>* rels = exec->shared->shared_rels;
  if (rels == nullptr || node->shared_index < 0 ||
      static_cast<size_t>(node->shared_index) >= rels->size()) {
    return Status::Internal("SharedRef #" + std::to_string(node->shared_index) +
                            " has no materialized shared subplan");
  }
  // No charges, no counters: the shared subplan's work was accounted once,
  // when the coordinator executed it (EXPLAIN ANALYZE attribution contract).
  const Relation& rel = (*rels)[static_cast<size_t>(node->shared_index)];
  NoteResult(node, rel);
  return RelHandle(&rel);
}

Result<RelHandle> Evaluator::ExecIndexJoin(PlanNode* node, Exec* exec) const {
  RDFOPT_RETURN_NOT_OK(CheckTimeout(*exec));
  RDFOPT_ASSIGN_OR_RETURN(RelHandle left_handle,
                          ExecNode(node->children[0].get(), exec));
  const Relation& left = left_handle.get();
  if (left.num_rows() == 0) {
    // Short-circuit: an empty intermediate ends the chain; the atom is
    // never probed.
    Relation out{node->out_columns};
    NoteResult(node, out);
    return RelHandle(std::move(out));
  }
  TraceSpan span("op.index_join");
  span.Attr("node", node->id);
  size_t probed = 0;
  size_t driving = left.num_rows();
  Relation out = IndexJoinAtom(*store_, left, node->atom, &probed);
  exec->metrics->join_input_rows += driving + probed;
  exec->metrics->hash_probes += driving;
  if constexpr (kNodeTelemetry) {
    node->rows_scanned = probed;   // Index rows read by the probes.
    node->hash_probes = driving;   // One probe lookup per driving row.
  }
  SpinFor(profile_->tuple_us_per_row *
          static_cast<double>(driving + probed));
  span.Attr("join_input_rows", driving + probed);
  span.Attr("output_rows", out.num_rows());
  NoteResult(node, out);
  return RelHandle(std::move(out));
}

Status Evaluator::RunTasks(
    size_t n, Exec* exec,
    const std::function<Status(size_t, Exec*)>& task) const {
  WorkerPool* pool = exec->shared->pool;
  if (pool == nullptr) {
    // Inline, in index order, straight into the caller's metrics and trace
    // session: exactly the stream the pooled merge below reproduces.
    for (size_t i = 0; i < n; ++i) RDFOPT_RETURN_NOT_OK(task(i, exec));
    return Status::OK();
  }
  TraceSession* parent_session = TraceSession::Current();
  struct TaskState {
    EvalMetrics metrics;
    std::optional<TraceSession> trace;
    double trace_base_ms = 0.0;
  };
  std::vector<TaskState> states(n);
  Status st = pool->ParallelFor(n, [&](size_t i) -> Status {
    TaskState& state = states[i];
    Exec local;
    local.shared = exec->shared;
    local.metrics = &state.metrics;
    std::optional<ScopedTraceSession> scoped;
    if (parent_session != nullptr) {
      // Worker spans land in a scratch buffer stamped against the parent
      // timeline; the caller adopts them in task order below.
      state.trace_base_ms = parent_session->ElapsedMillis();
      state.trace.emplace();
      scoped.emplace(&*state.trace);
    }
    Status task_st = task(i, &local);
    if (!task_st.ok() && task_st.code() != StatusCode::kCancelled) {
      // First-error-wins across every concurrent batch of this query.
      exec->shared->cancelled.store(true, std::memory_order_release);
    }
    return task_st;
  });
  // Sequential merge in task index order (DESIGN.md §9). Trace buffers are
  // adopted even after a failure, so a partial trace still shows what ran.
  for (TaskState& state : states) {
    if (state.trace.has_value()) {
      parent_session->AdoptChildSpans(*state.trace, state.trace_base_ms);
    }
    exec->metrics->Accumulate(state.metrics);
  }
  return st;
}

Result<RelHandle> Evaluator::ExecHashJoin(PlanNode* node, Exec* exec) const {
  RDFOPT_RETURN_NOT_OK(CheckTimeout(*exec));
  std::optional<RelHandle> sides[2];
  if (node->component_join) {
    // Component UCQs are independent subqueries: one task per side.
    RDFOPT_RETURN_NOT_OK(
        RunTasks(2, exec, [&](size_t i, Exec* task) -> Status {
          RDFOPT_ASSIGN_OR_RETURN(RelHandle side,
                                  ExecNode(node->children[i].get(), task));
          sides[i].emplace(std::move(side));
          return Status::OK();
        }));
  } else {
    RDFOPT_ASSIGN_OR_RETURN(RelHandle l, ExecNode(node->children[0].get(),
                                                  exec));
    if (l.get().num_rows() == 0) {
      // Short-circuit within a disjunct: skip the right subtree entirely
      // (its nodes keep executed == false).
      Relation out{node->out_columns};
      NoteResult(node, out);
      return RelHandle(std::move(out));
    }
    if (l.get().columns().empty()) {
      // Passed boolean guard: forward the right side unchanged, free of
      // charge — the guard never materializes as a join at runtime.
      RDFOPT_ASSIGN_OR_RETURN(RelHandle out,
                              ExecNode(node->children[1].get(), exec));
      NoteResult(node, out.get());
      return out;
    }
    sides[0].emplace(std::move(l));
    RDFOPT_ASSIGN_OR_RETURN(RelHandle r, ExecNode(node->children[1].get(),
                                                  exec));
    sides[1].emplace(std::move(r));
  }
  RDFOPT_RETURN_NOT_OK(CheckTimeout(*exec));
  // Component joins are engine.join steps of the JUCQ combination; joins
  // within a disjunct are op.hash_join.
  TraceSpan span(node->component_join ? "engine.join" : "op.hash_join");
  span.Attr("node", node->id);
  const Relation& lrel = sides[0]->get();
  const Relation& rrel = sides[1]->get();
  size_t inputs = lrel.num_rows() + rrel.num_rows();
  // The build side is the smaller input, so the probe side is the larger.
  size_t probes = std::max(lrel.num_rows(), rrel.num_rows());
  exec->metrics->join_input_rows += inputs;
  exec->metrics->hash_probes += probes;
  if constexpr (kNodeTelemetry) {
    node->rows_scanned = inputs;
    node->hash_probes = probes;
  }
  SpinFor(profile_->tuple_us_per_row * static_cast<double>(inputs));
  Relation out = HashJoin(lrel, rrel, profile_->prefetch_probes);
  span.Attr("join_input_rows", inputs);
  span.Attr("output_rows", out.num_rows());
  NoteResult(node, out);
  return RelHandle(std::move(out));
}

Result<RelHandle> Evaluator::ExecUnionAll(PlanNode* node, Exec* exec) const {
  if (node->over_limit) {
    return Status::QueryTooComplex(
        UnionLimitMessage(node->union_terms, *profile_));
  }
  exec->metrics->union_terms += node->union_terms;
  if (node->pre_collapse_terms > node->union_terms) {
    exec->metrics->union_terms_collapsed +=
        node->pre_collapse_terms - node->union_terms;
  }

  // Morsels of consecutive disjuncts, one task each. Without a pool the
  // whole union is one morsel; with T threads, ~4 morsels per thread so slow
  // disjuncts (full scans next to selective ones) load-balance.
  const WorkerPool* pool = exec->shared->pool;
  const size_t n = node->children.size();
  const size_t morsel = std::max<size_t>(
      1, n / (pool == nullptr ? 1 : 4 * (pool->num_threads() + 1)));
  std::vector<std::optional<Relation>> accs(std::max<size_t>(
      1, (n + morsel - 1) / morsel));
  auto run_morsel = [&](size_t m, Exec* task) -> Status {
    Relation acc{std::vector<VarId>(node->head)};
    for (size_t i = m * morsel; i < std::min(n, (m + 1) * morsel); ++i) {
      RDFOPT_RETURN_NOT_OK(CheckTimeout(*task));
      // Per-union-term plan setup overhead (profile emulation), charged once
      // per term on whichever thread executes it: total emulated work, and
      // the cost model's per-term c_union_term, never depend on threads.
      SpinFor(profile_->union_term_overhead_us);
      RDFOPT_ASSIGN_OR_RETURN(RelHandle rel,
                              ExecNode(node->children[i].get(), task));
      // Per-tuple executor overhead for rows appended to the union.
      SpinFor(profile_->tuple_us_per_row *
              static_cast<double>(rel.get().num_rows()));
      ProjectInto(&acc, rel.get(), node->disjuncts[i].head_bindings);
    }
    accs[m].emplace(std::move(acc));
    return Status::OK();
  };
  RDFOPT_RETURN_NOT_OK(RunTasks(accs.size(), exec, run_morsel));

  Relation acc = std::move(*accs[0]);
  if (accs.size() > 1) {
    size_t total_rows = 0;
    for (const auto& part : accs) total_rows += part->num_rows();
    acc.Reserve(total_rows);
    for (size_t m = 1; m < accs.size(); ++m) acc.Append(*accs[m]);
  }
  NoteResult(node, acc);
  return RelHandle(std::move(acc));
}

Result<RelHandle> Evaluator::ExecProject(PlanNode* node, Exec* exec) const {
  RelHandle in{TrueRow()};  // The atom-less (always true) conjunction.
  if (!node->children.empty()) {
    RDFOPT_ASSIGN_OR_RETURN(in, ExecNode(node->children[0].get(), exec));
  }
  Relation out = ProjectWithBindings(in.get(), node->head, node->bindings);
  NoteResult(node, out);
  return RelHandle(std::move(out));
}

Result<RelHandle> Evaluator::ExecDedup(PlanNode* node, Exec* exec) const {
  // Component roots carry the per-component UCQ span: its counter
  // attributes are the deltas this component contributed, so per-span
  // accounting rolls up exactly into the lump-sum EvalMetrics the caller
  // receives. The span covers the whole component, error paths included.
  std::optional<TraceSpan> span;
  EvalMetrics before;
  if (node->component >= 0) {
    span.emplace("engine.ucq");
    span->Attr("node", node->id);
    if (span->active()) before = *exec->metrics;
  }
  // The one place a view is read (DESIGN.md §14). A stamped component
  // whose signature resolves in the request's catalog epoch is served from
  // the stored rows: they are this component's own earlier deduplicated
  // output, so the union is not executed and the re-dedup is skipped —
  // Deduplicate is stable, which makes the skip bit-identical, not just
  // set-equal.
  std::shared_ptr<const Relation> view;
  if (views_ != nullptr && !node->view_signature.empty()) {
    const auto& resolved = exec->shared->resolved_views;
    auto it = std::find_if(resolved.begin(), resolved.end(),
                           [node](const auto& r) { return r.first == node; });
    view = it != resolved.end() ? it->second
                                : views_->Lookup(node->view_signature);
  }
  Relation out{node->out_columns};
  if (view != nullptr) {
    RDFOPT_RETURN_NOT_OK(CheckTimeout(*exec));
    if (view->arity() != out.arity()) {
      return Status::Internal("view for component #" +
                              std::to_string(node->id) + " has arity " +
                              std::to_string(view->arity()) + ", expected " +
                              std::to_string(out.arity()));
    }
    // The stored columns carry the populating query's VarIds; the signature
    // guarantees arity and column order match, so only the labels differ.
    if (view->num_rows() > 0) {
      ValueId* cells = out.AppendUninitialized(view->num_rows());
      if (cells != nullptr) {  // Null for zero-arity (rows are just counted).
        std::memcpy(cells, view->cells_data(),
                    view->num_cells() * sizeof(ValueId));
      }
    }
    // Reading the stored result costs one pass over its rows, like any
    // other driving scan — the emulated engine still touches the data once.
    SpinFor(profile_->tuple_us_per_row * static_cast<double>(out.num_rows()));
    ++exec->metrics->view_hits;
  } else {
    RDFOPT_ASSIGN_OR_RETURN(RelHandle handle,
                            ExecNode(node->children[0].get(), exec));
    // Dedup mutates in place, so it needs ownership (its child is a union or
    // projection — always owned in practice; a borrowed input would copy).
    out = std::move(handle).Take();
    exec->metrics->duplicates_removed +=
        out.Deduplicate(profile_->prefetch_probes);
    // Opportunistic harvest: offer the freshly deduplicated result for
    // admission under the stamped signature.
    if (views_ != nullptr && !node->view_signature.empty()) {
      views_->Offer(node->view_signature, out);
    }
  }
  if (span.has_value() && span->active()) {
    const EvalMetrics& m = *exec->metrics;
    span->Attr("view_hit", view != nullptr);
    span->Attr("union_terms", m.union_terms - before.union_terms);
    span->Attr("rows_scanned", m.rows_scanned - before.rows_scanned);
    span->Attr("join_input_rows",
               m.join_input_rows - before.join_input_rows);
    span->Attr("duplicates_removed",
               m.duplicates_removed - before.duplicates_removed);
    span->Attr("output_rows", out.num_rows());
  }
  NoteResult(node, out);
  return RelHandle(std::move(out));
}

Result<RelHandle> Evaluator::ExecMaterialize(PlanNode* node,
                                             Exec* exec) const {
  RDFOPT_ASSIGN_OR_RETURN(RelHandle out, ExecNode(node->children[0].get(),
                                                  exec));
  TraceSpan span("engine.materialize");
  span.Attr("node", node->id);
  span.Attr("rows_materialized", out.get().num_rows());
  const size_t bytes = out.get().num_cells() * sizeof(ValueId);
  exec->metrics->bytes_materialized += bytes;
  if constexpr (kNodeTelemetry) node->bytes_materialized = bytes;
  RDFOPT_RETURN_NOT_OK(ChargeMaterialization(out.get(), exec));
  NoteResult(node, out.get());
  return out;
}

Result<RelHandle> Evaluator::ExecNode(PlanNode* node, Exec* exec) const {
  // Two steady_clock reads per node; the BENCH_observability.json sidecar
  // shows the cost against a RDFOPT_DISABLE_NODE_TELEMETRY build.
  NodeTimer timer(node);
  switch (node->kind) {
    case PlanNodeKind::kAtomScan:
      return ExecAtomScan(node, exec);
    case PlanNodeKind::kScanRange:
      return ExecScanRange(node, exec);
    case PlanNodeKind::kIndexJoinAtom:
      return ExecIndexJoin(node, exec);
    case PlanNodeKind::kHashJoin:
      return ExecHashJoin(node, exec);
    case PlanNodeKind::kUnionAll:
      return ExecUnionAll(node, exec);
    case PlanNodeKind::kProject:
      return ExecProject(node, exec);
    case PlanNodeKind::kDedup:
      return ExecDedup(node, exec);
    case PlanNodeKind::kMaterializeBarrier:
      return ExecMaterialize(node, exec);
    case PlanNodeKind::kSharedRef:
      return ExecSharedRef(node, exec);
  }
  return Status::Internal("unknown plan node kind");
}

Result<Relation> Evaluator::ExecutePlan(PhysicalPlan* plan,
                                        EvalMetrics* metrics) const {
  EvalMetrics scratch;
  Exec::Shared shared;
  if (profile_->worker_threads > 1) {
    // The caller runs tasks too (help-first), so N-way parallelism needs
    // N-1 pool workers.
    shared.pool = &WorkerPool::Shared(profile_->worker_threads - 1);
  }
  Exec exec;
  exec.shared = &shared;
  exec.metrics = metrics != nullptr ? metrics : &scratch;
  const EvalMetrics before = *exec.metrics;
  plan->ResetActuals();

  std::optional<TraceSpan> span;
  if (plan->shape == PlanShape::kJucq) {
    span.emplace("engine.jucq");
    span->Attr("components", plan->num_components);
  }
  // An infeasible plan (union over the profile's limit) is rejected before
  // any execution, exactly as the engine would refuse the statement.
  RDFOPT_RETURN_NOT_OK(plan->feasibility);

  // Execute-once shared subplans run first, on the coordinator, so worker
  // tasks can borrow their results read-only. Their scan work, counters and
  // emulated charges are attributed here — exactly once, not per consuming
  // branch. A subplan whose every consumer sits in a component served from
  // a view would run for nothing: those components' views are resolved
  // now, and only subplans still referenced elsewhere run.
  std::vector<Relation> shared_rels;
  if (!plan->shared_subplans.empty()) {
    std::vector<const PlanNode*> served;
    if (views_ != nullptr) {
      std::vector<const PlanNode*> owners;
      CollectSharedSubplanOwners(*plan->root, &owners);
      for (const PlanNode* owner : owners) {
        std::shared_ptr<const Relation> view =
            views_->Lookup(owner->view_signature);
        if (view != nullptr) served.push_back(owner);
        shared.resolved_views.emplace_back(owner, std::move(view));
      }
    }
    std::vector<bool> needed(plan->shared_subplans.size(), false);
    MarkNeededSharedSubplans(*plan->root, served, &needed);
    TraceSpan shared_span("engine.shared_subplans");
    shared_span.Attr("count", plan->shared_subplans.size());
    shared_rels.reserve(plan->shared_subplans.size());
    size_t skipped = 0;
    for (size_t i = 0; i < plan->shared_subplans.size(); ++i) {
      PlanNode* subplan = plan->shared_subplans[i].get();
      if (!needed[i]) {
        shared_rels.emplace_back(subplan->out_columns);  // Never read.
        ++skipped;
        continue;
      }
      RDFOPT_ASSIGN_OR_RETURN(RelHandle h, ExecNode(subplan, &exec));
      shared_rels.push_back(std::move(h).Take());
    }
    if (skipped > 0) shared_span.Attr("skipped", skipped);
    shared.shared_rels = &shared_rels;
  }

  RDFOPT_ASSIGN_OR_RETURN(RelHandle root_handle,
                          ExecNode(plan->root.get(), &exec));
  Relation out = std::move(root_handle).Take();
  exec.metrics->elapsed_ms += shared.timer.ElapsedMillis();
  if (span.has_value() && span->active()) {
    const EvalMetrics& m = *exec.metrics;
    span->Attr("union_terms", m.union_terms - before.union_terms);
    span->Attr("rows_materialized",
               m.rows_materialized - before.rows_materialized);
    span->Attr("duplicates_removed",
               m.duplicates_removed - before.duplicates_removed);
    span->Attr("output_rows", out.num_rows());
  }
  RecordEngineMetrics(*exec.metrics, before);
  // Close the estimate-feedback loop: the executed disjuncts' actuals are
  // now in the plan nodes; fold them into the store so the next planning of
  // the same fragments starts from observed cardinalities.
  if (feedback_ != nullptr) RecordPlanFeedback(*plan, feedback_);
  return out;
}

Result<Relation> Evaluator::EvaluateCQ(const ConjunctiveQuery& cq,
                                       EvalMetrics* metrics) const {
  PhysicalPlan plan = planner().PlanCQ(cq);
  return ExecutePlan(&plan, metrics);
}

Result<Relation> Evaluator::EvaluateUCQ(const UnionQuery& ucq,
                                        EvalMetrics* metrics) const {
  PhysicalPlan plan = planner().PlanUCQ(ucq);
  return ExecutePlan(&plan, metrics);
}

Result<Relation> Evaluator::EvaluateJUCQ(const JoinOfUnions& jucq,
                                         EvalMetrics* metrics) const {
  PhysicalPlan plan = planner().PlanJUCQ(jucq);
  return ExecutePlan(&plan, metrics);
}

double Evaluator::ExplainCost(const JoinOfUnions& jucq,
                              const CardinalityEstimator& estimator) const {
  PhysicalPlan plan = Planner(&estimator, profile_).PlanJUCQ(jucq);
  if (!plan.feasibility.ok()) {
    return std::numeric_limits<double>::infinity();
  }
  return plan.est_cost();
}

}  // namespace rdfopt
