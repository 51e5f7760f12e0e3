#include "service/query_service.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/metrics.h"
#include "common/trace.h"
#include "engine/plan_verifier.h"
#include "reasoner/saturation.h"
#include "sparql/parser.h"
#include "storage/statistics.h"

namespace rdfopt {

namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// Releases an admission slot on scope exit.
class SlotGuard {
 public:
  explicit SlotGuard(AdmissionController* admission) : admission_(admission) {}
  ~SlotGuard() { admission_->Release(); }
  SlotGuard(const SlotGuard&) = delete;
  SlotGuard& operator=(const SlotGuard&) = delete;

 private:
  AdmissionController* admission_;
};

struct ServiceMetrics {
  MetricCounter* queries;
  MetricCounter* cache_hits;
  MetricCounter* cache_misses;
  MetricCounter* cache_evictions;
  /// Components served from the view catalog (EvalMetrics::view_hits),
  /// split by path: cached plans vs. freshly planned ones (cache miss or
  /// cache off). Over service.cache_hits / cache_misses they give the view
  /// hits per request on each path.
  MetricCounter* view_hits_on_cache_hit;
  MetricCounter* view_hits_on_cache_miss;
  MetricCounter* shed;
  MetricCounter* deadline_exceeded;
  MetricCounter* epoch_bumps;
  MetricGauge* epoch;
  MetricHistogram* queue_wait_ms;
  MetricHistogram* total_ms;
  /// Trailing-window twin of service.total_ms: the p99-over-last-minute
  /// signal `!prom` exports for alerting.
  MetricWindowedHistogram* total_ms_window;
};

ServiceMetrics& Metrics() {
  static ServiceMetrics m = [] {
    MetricsRegistry& r = MetricsRegistry::Global();
    ServiceMetrics out;
    out.queries = r.GetCounter("service.queries");
    out.cache_hits = r.GetCounter("service.cache_hits");
    out.cache_misses = r.GetCounter("service.cache_misses");
    out.cache_evictions = r.GetCounter("service.cache_evictions");
    out.view_hits_on_cache_hit =
        r.GetCounter("service.view_hits_on_cache_hit");
    out.view_hits_on_cache_miss =
        r.GetCounter("service.view_hits_on_cache_miss");
    out.shed = r.GetCounter("service.shed");
    out.deadline_exceeded = r.GetCounter("service.deadline_exceeded");
    out.epoch_bumps = r.GetCounter("service.epoch_bumps");
    out.epoch = r.GetGauge("service.epoch");
    out.queue_wait_ms = r.GetHistogram("service.queue_wait_ms");
    out.total_ms = r.GetHistogram("service.total_ms");
    out.total_ms_window = r.GetWindowedHistogram("service.total_ms");
    return out;
  }();
  return m;
}

}  // namespace

QueryService::QueryService(Graph* graph, const EngineProfile& profile,
                           ServiceOptions options)
    : graph_(graph),
      profile_(profile),
      options_(std::move(options)),
      cache_(options_.cache_bytes),
      admission_(options_.max_concurrent, options_.max_queue),
      slow_log_(SlowQueryLog::Options{options_.slow_query_ms,
                                      options_.slow_log_capacity,
                                      options_.slow_log_sample}),
      views_(ViewCatalogOptions{options_.view_bytes,
                                ViewCatalogOptions{}.max_ledger_entries}),
      view_advisor_(ViewAdvisorOptions{options_.view_pin_limit,
                                       options_.view_min_observations}) {
  std::lock_guard<std::mutex> lock(update_mu_);
  InstallSnapshot(BuildSnapshotLocked(epoch_.Current()));
  Metrics().epoch->Set(static_cast<int64_t>(epoch_.Current()));
}

std::shared_ptr<const QueryService::Snapshot> QueryService::CurrentSnapshot()
    const {
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  return snapshot_;
}

void QueryService::InstallSnapshot(std::shared_ptr<const Snapshot> snapshot) {
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  snapshot_ = std::move(snapshot);
}

Schema QueryService::ReplaySchemaLocked() const {
  Schema schema;
  const Vocabulary& vocab = graph_->vocab();
  for (const Triple& t : graph_->schema_triples()) {
    if (t.p == vocab.rdfs_subclassof) {
      schema.AddSubClass(t.s, t.o);
    } else if (t.p == vocab.rdfs_subpropertyof) {
      schema.AddSubProperty(t.s, t.o);
    } else if (t.p == vocab.rdfs_domain) {
      schema.AddDomain(t.s, t.o);
    } else if (t.p == vocab.rdfs_range) {
      schema.AddRange(t.s, t.o);
    }
  }
  schema.Finalize();
  return schema;
}

std::shared_ptr<const QueryService::Snapshot>
QueryService::BuildSnapshotLocked(Epoch epoch) const {
  Schema schema = ReplaySchemaLocked();
  TripleStore data = TripleStore::Build(graph_->data_triples());
  if (profile_.hierarchy_ranges) {
    // Epoch re-encode protocol (DESIGN.md §12): every snapshot carries its
    // own hierarchy encoding, rebuilt from the epoch's schema. In-flight
    // queries pin their snapshot and keep planning/scanning against the old
    // hid assignment; new requests see the new one.
    data.AttachHierarchy(std::make_shared<const HierarchyEncoding>(
        HierarchyEncoding::Build(schema, graph_->vocab().rdf_type)));
  }
  // Only saturation answering reads the saturated store; every other
  // strategy reformulates over `data`, so nothing entailed is materialized.
  TripleStore saturated;
  if (MaintainsSaturation()) {
    saturated = Saturate(data, schema, graph_->vocab()).store;
  }
  Statistics stats = Statistics::Compute(data);
  return std::make_shared<Snapshot>(epoch, std::move(data),
                                    std::move(saturated), std::move(stats),
                                    std::move(schema),
                                    options_.enable_feedback);
}

Status QueryService::ApplyUpdate(const std::vector<Triple>& additions) {
  std::lock_guard<std::mutex> update_lock(update_mu_);
  {
    // The dictionary is the only state shared with readers (parsing interns
    // constants); everything below reads or writes writer-owned state.
    std::lock_guard<std::mutex> graph_lock(graph_mu_);
    for (const Triple& t : additions) {
      if (!graph_->dict().Contains(t.s) || !graph_->dict().Contains(t.p) ||
          !graph_->dict().Contains(t.o)) {
        return Status::InvalidArgument("update triple uses un-interned ids");
      }
    }
  }
  const size_t schema_before = graph_->num_schema_triples();
  std::vector<Triple> data_delta;
  data_delta.reserve(additions.size());
  for (const Triple& t : additions) {
    graph_->AddEncoded(t.s, t.p, t.o);
    if (!graph_->vocab().IsSchemaProperty(t.p)) data_delta.push_back(t);
  }
  const Epoch epoch = epoch_.Advance();
  Metrics().epoch_bumps->Increment();
  Metrics().epoch->Set(static_cast<int64_t>(epoch));
  if (graph_->num_schema_triples() != schema_before) {
    // Schema changed: closures, saturation and every derived artifact must
    // be recomputed from scratch — including pinned views, whose
    // carry-forward test only covers data deltas.
    std::shared_ptr<const Snapshot> next = BuildSnapshotLocked(epoch);
    InstallSnapshot(next);
    if (options_.enable_views) {
      MaintainViews(next, data_delta, /*delta_is_complete=*/false);
    }
    return Status::OK();
  }
  // Data-only delta: merge the sorted indexes, derive the statistics from
  // the delta's point lookups, and (saturation strategy only) reason over
  // the delta alone — saturation distributes over union in the DB
  // fragment; see IncrementalSaturate.
  std::shared_ptr<const Snapshot> current = CurrentSnapshot();
  const TripleStore delta = TripleStore::Build(data_delta);
  TripleStore data = TripleStore::Merge(current->data, delta);
  if (current->data.hierarchy_ptr() != nullptr) {
    // Schema unchanged, so the hid assignment carries over; only the shadow
    // index is rebuilt over the merged triples.
    data.AttachHierarchy(current->data.hierarchy_ptr());
  }
  TripleStore saturated;
  if (MaintainsSaturation()) {
    saturated = IncrementalSaturate(current->saturated, data_delta,
                                    current->schema, graph_->vocab())
                    .store;
  }
  Statistics stats =
      Statistics::ComputeMerged(current->stats, current->data, delta);
  std::shared_ptr<const Snapshot> next = std::make_shared<Snapshot>(
      epoch, std::move(data), std::move(saturated), std::move(stats),
      ReplaySchemaLocked(), options_.enable_feedback);
  InstallSnapshot(next);
  if (options_.enable_views) {
    MaintainViews(next, data_delta, /*delta_is_complete=*/true);
  }
  return Status::OK();
}

void QueryService::Refresh() {
  std::lock_guard<std::mutex> lock(update_mu_);
  const Epoch epoch = epoch_.Advance();
  Metrics().epoch_bumps->Increment();
  Metrics().epoch->Set(static_cast<int64_t>(epoch));
  std::shared_ptr<const Snapshot> next = BuildSnapshotLocked(epoch);
  InstallSnapshot(next);
  if (options_.enable_views) {
    // Out-of-band graph change: no delta to reason about, refresh wholesale.
    MaintainViews(next, {}, /*delta_is_complete=*/false);
  }
}

void QueryService::MaintainViews(
    const std::shared_ptr<const Snapshot>& snapshot,
    const std::vector<Triple>& data_delta, bool delta_is_complete) {
  std::vector<ViewCatalog::RefreshTask> tasks =
      views_.BeginEpoch(snapshot->epoch, data_delta, delta_is_complete);
  for (ViewCatalog::RefreshTask& task : tasks) {
    // Deliberately no resolver on this evaluator: re-materialization must
    // compute from base data, never substitute the rows being replaced.
    Evaluator evaluator(&snapshot->data, &profile_, &snapshot->estimator);
    PhysicalPlan plan = evaluator.planner().PlanUCQ(task.definition);
    if (!plan.feasibility.ok()) {
      views_.Drop(task.signature);
      continue;
    }
    EvalMetrics eval;
    Result<Relation> rows = evaluator.ExecutePlan(&plan, &eval);
    if (!rows.ok()) {
      views_.Drop(task.signature);
      continue;
    }
    views_.InstallPinned(task.signature, rows.TakeValue(), snapshot->epoch);
  }
}

Result<ServiceOutcome> QueryService::AnswerText(std::string_view text,
                                                const RequestOptions& request) {
  Result<Query> parsed = [&] {
    std::lock_guard<std::mutex> lock(graph_mu_);
    return ParseQuery(text, &graph_->dict());
  }();
  RDFOPT_RETURN_NOT_OK(parsed.status());
  return Answer(parsed.ValueOrDie(), request);
}

std::vector<std::string> QueryService::DecodeRow(const Relation& relation,
                                                 size_t row) const {
  std::lock_guard<std::mutex> lock(graph_mu_);
  std::vector<std::string> out;
  out.reserve(relation.arity());
  for (size_t col = 0; col < relation.arity(); ++col) {
    out.push_back(graph_->dict().term(relation.at(row, col)).lexical);
  }
  return out;
}

Result<ServiceOutcome> QueryService::Answer(const Query& query,
                                            const RequestOptions& request) {
  const Clock::time_point start = Clock::now();
  Metrics().queries->Increment();
  TraceSpan span("service.query");

  CanonicalizedQuery canonical;
  {
    TraceSpan canon_span("service.canonicalize");
    canonical = Canonicalize(query.cq);
    canon_span.Attr("key", canonical.key);
  }

  // Every exit path below feeds the slow-query log: failed requests always
  // qualify, successful ones when total_ms crosses the threshold.
  const auto record_failure = [&](const Status& status, double queue_wait_ms,
                                  Epoch epoch) {
    if (!options_.enable_slow_log) return;
    SlowQueryLog::Record rec;
    rec.canonical_query = canonical.key;
    rec.status = status;
    rec.epoch = epoch;
    rec.queue_wait_ms = queue_wait_ms;
    rec.total_ms = MsSince(start);
    slow_log_.MaybeRecord(rec);
  };

  const double deadline_ms = request.deadline_ms > 0.0
                                 ? request.deadline_ms
                                 : options_.default_deadline_ms;
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double, std::milli>(deadline_ms));

  double queue_wait_ms = 0.0;
  {
    TraceSpan admit_span("service.admit");
    const Status admitted = admission_.Acquire(deadline);
    queue_wait_ms = MsSince(start);
    admit_span.Attr("queue_wait_ms", queue_wait_ms);
    Metrics().queue_wait_ms->Observe(queue_wait_ms);
    if (!admitted.ok()) {
      if (admitted.code() == StatusCode::kResourceExhausted) {
        Metrics().shed->Increment();
      } else {
        Metrics().deadline_exceeded->Increment();
      }
      span.Attr("rejected", admitted.ToString());
      record_failure(admitted, queue_wait_ms, epoch_.Current());
      return admitted;
    }
  }
  SlotGuard slot(&admission_);

  // Thread the remaining deadline and the per-request memory budget into the
  // engine's own limits; evaluation never loosens the profile.
  EngineProfile request_profile = profile_;
  const double remaining_s =
      std::chrono::duration<double>(deadline - Clock::now()).count();
  request_profile.timeout_seconds =
      std::min(request_profile.timeout_seconds, std::max(remaining_s, 1e-3));
  if (request.max_materialized_cells > 0) {
    request_profile.max_materialized_cells = std::min(
        request_profile.max_materialized_cells, request.max_materialized_cells);
  }

  std::shared_ptr<const Snapshot> snapshot = CurrentSnapshot();
  Result<ServiceOutcome> result =
      AnswerOnSnapshot(canonical, snapshot, request_profile);
  if (!result.ok()) {
    record_failure(result.status(), queue_wait_ms, snapshot->epoch);
    return result;
  }
  ServiceOutcome outcome = result.TakeValue();

  outcome.columns.reserve(query.cq.head.size());
  for (VarId v : query.cq.head) outcome.columns.push_back(query.vars.name(v));
  outcome.queue_wait_ms = queue_wait_ms;
  outcome.total_ms = MsSince(start);
  Metrics().total_ms->Observe(outcome.total_ms);
  Metrics().total_ms_window->Observe(outcome.total_ms);
  span.Attr("cache_hit", outcome.cache_hit);
  span.Attr("epoch", static_cast<uint64_t>(outcome.epoch));
  span.Attr("rows", static_cast<uint64_t>(outcome.answers.num_rows()));
  if (options_.enable_slow_log &&
      outcome.total_ms >= slow_log_.threshold_ms()) {
    SlowQueryLog::Record rec;
    rec.canonical_query = canonical.key;
    rec.plan_digest = outcome.plan_digest;
    rec.cache_hit = outcome.cache_hit;
    rec.epoch = outcome.epoch;
    rec.queue_wait_ms = outcome.queue_wait_ms;
    rec.optimize_ms = outcome.optimize_ms;
    rec.reformulate_ms = outcome.reformulate_ms;
    rec.plan_ms = outcome.plan_ms;
    rec.evaluate_ms = outcome.evaluate_ms;
    rec.total_ms = outcome.total_ms;
    rec.vector_width = outcome.vector_width;
    rec.eval = outcome.eval;
    rec.nodes = outcome.node_stats;
    slow_log_.MaybeRecord(rec);
  }
  // The advisor piggybacks on the query stream: every Nth answered query
  // triggers one scoring pass over the catalog's ledger (no extra threads).
  if (options_.enable_views && options_.view_advisor_interval > 0 &&
      (advisor_tick_.fetch_add(1, std::memory_order_relaxed) + 1) %
              options_.view_advisor_interval ==
          0) {
    view_advisor_.RunPass(&views_);
  }
  return outcome;
}

Result<ServiceOutcome> QueryService::AnswerOnSnapshot(
    const CanonicalizedQuery& canonical,
    const std::shared_ptr<const Snapshot>& snapshot,
    const EngineProfile& request_profile) {
  ServiceOutcome outcome;
  outcome.epoch = snapshot->epoch;

  // Views are resolved through a per-request adapter pinning the snapshot's
  // epoch, so a request that races an update can neither read rows from
  // another epoch nor publish its results into one (epoch_guard.h).
  EpochViewResolver view_resolver(&views_, snapshot->epoch);
  const bool use_views = options_.enable_views &&
                         options_.answer.strategy != Strategy::kSaturation;

  // Saturation answering builds no reusable physical plan, so it bypasses
  // the cache entirely.
  const bool use_cache = options_.enable_cache &&
                         options_.answer.strategy != Strategy::kSaturation;

  std::shared_ptr<const CachedPlanEntry> entry;
  if (use_cache) {
    TraceSpan lookup_span("service.lookup");
    entry = cache_.Get(canonical.key, snapshot->epoch);
    lookup_span.Attr("hit", entry != nullptr);
  }

  if (entry != nullptr) {
    // Hit: skip reformulation, cover search and planning; clone the plan
    // template (execution writes actuals into the tree) and evaluate against
    // the pinned snapshot.
    Metrics().cache_hits->Increment();
    outcome.cache_hit = true;
    outcome.chosen_cover = entry->cover;
    outcome.union_terms = entry->union_terms;
    outcome.num_components = entry->num_components;
    PhysicalPlan plan = entry->plan.Clone();
    // Clone is the other producer of executable plans (besides the planner);
    // a Clone bug would corrupt every hit of the entry, so it gets the same
    // debug-build structural verification as freshly planned trees.
    DebugCheckPlan(plan, &snapshot->data, "plan-cache clone");
    Evaluator evaluator(&snapshot->data, &request_profile,
                        &snapshot->estimator);
    // Cached plans carry their components' view signatures, so a hit reads
    // every view admitted since the plan was cached and offers the
    // components it executes.
    if (use_views) evaluator.set_views(&view_resolver);
    TraceSpan exec_span("service.execute");
    RDFOPT_ASSIGN_OR_RETURN(outcome.answers,
                            evaluator.ExecutePlan(&plan, &outcome.eval));
    Metrics().view_hits_on_cache_hit->Add(outcome.eval.view_hits);
    outcome.evaluate_ms = outcome.eval.elapsed_ms;
    outcome.plan_digest = PlanDigest(plan);
    outcome.node_stats = CollectNodeStats(plan);
    outcome.vector_width = plan.vector_width;
    exec_span.Attr("rows", static_cast<uint64_t>(outcome.answers.num_rows()));
    return outcome;
  }

  if (use_cache) Metrics().cache_misses->Increment();

  // Miss: run the full pipeline on the *canonical* query — not the submitted
  // one — so hit and miss paths execute literally the same query and produce
  // byte-identical rows. keep_plan harvests the executed plan for the cache.
  QueryAnswerer answerer(&snapshot->data,
                         MaintainsSaturation() ? &snapshot->saturated : nullptr,
                         &snapshot->schema, &graph_->vocab(), &snapshot->stats,
                         &request_profile);
  if (options_.enable_feedback) answerer.EnableFeedback(&snapshot->feedback);
  if (use_views) answerer.EnableViews(&view_resolver);
  AnswerOptions answer_options = options_.answer;
  // The slow-query log wants per-node timings even when caching is off.
  answer_options.keep_plan = use_cache || options_.enable_slow_log;
  RDFOPT_ASSIGN_OR_RETURN(AnswerOutcome answered,
                          answerer.Answer(canonical.query, answer_options));

  outcome.answers = std::move(answered.answers);
  outcome.eval = answered.eval;
  Metrics().view_hits_on_cache_miss->Add(outcome.eval.view_hits);
  outcome.chosen_cover = answered.chosen_cover;
  outcome.optimize_ms = answered.optimize_ms;
  outcome.reformulate_ms = answered.reformulate_ms;
  outcome.plan_ms = answered.plan_ms;
  outcome.evaluate_ms = answered.evaluate_ms;
  outcome.union_terms = answered.union_terms;
  outcome.num_components = answered.num_components;
  if (answered.plan.has_value()) {
    outcome.plan_digest = PlanDigest(*answered.plan);
    // Harvest the per-operator accounting before the plan's actuals are
    // reset for the cache below.
    outcome.node_stats = CollectNodeStats(*answered.plan);
    outcome.vector_width = answered.plan->vector_width;
  }

  if (use_cache && answered.plan.has_value() &&
      answered.plan->feasibility.ok()) {
    auto cached = std::make_shared<CachedPlanEntry>();
    cached->epoch = snapshot->epoch;
    cached->cover = outcome.chosen_cover;
    cached->plan = std::move(*answered.plan);
    cached->plan.ResetActuals();
    cached->union_terms = outcome.union_terms;
    cached->num_components = outcome.num_components;
    cached->est_cost = cached->plan.est_cost();
    cached->bytes = canonical.key.size() + EstimatePlanBytes(cached->plan);
    const size_t evicted =
        cache_.Put(canonical.key, std::move(cached), epoch_.Current());
    if (evicted > 0) Metrics().cache_evictions->Add(evicted);
  }
  return outcome;
}

QueryService::Stats QueryService::stats() const {
  Stats s;
  s.epoch = epoch_.Current();
  s.cache = cache_.stats();
  s.admission = admission_.stats();
  s.views = views_.stats();
  return s;
}

}  // namespace rdfopt
