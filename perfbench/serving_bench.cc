// Serving benchmark: drives QueryService in-process the way
// examples/rdfopt_server.cc deploys it (Postgres-like engine, views on,
// AnswerText followed by DecodeRow on up to 100 rows), on real work only —
// the engine profile's emulated per-row and per-term latencies are zeroed.
// Every answer is checked against saturation answering (paper Thm 3.1).
// perfbench/README.md gives each workload's rationale and the metric map.
//
// Usage:
//   serving_bench --workload NAME --seed N --seconds S --trace 0|1
//                 [--small] [--git-sha SHA] [--source-sha SHA]
//
// The last line of standard output is one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// holding the end-to-end metrics (--trace 0) or the per-layer ones
// (--trace 1). The line before it holds every metric measured plus the
// provenance stamp, engine profile and service options.

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "common/json_writer.h"
#include "common/metrics.h"
#include "engine/engine_profile.h"
#include "optimizer/answering.h"
#include "reasoner/saturation.h"
#include "service/canonical.h"
#include "service/query_service.h"
#include "sparql/parser.h"
#include "storage/statistics.h"
#include "storage/triple_store.h"
#include "workload/lubm.h"
#include "workload/query_sets.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace rdfopt::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// ---------------------------------------------------------------------------
// Configuration under test.

/// The deployed engine minus emulation: PostgresLikeProfile() with the three
/// busy-wait overheads zeroed. Every other field keeps its value, so a later
/// change to a default is measured.
EngineProfile BenchProfile() {
  EngineProfile p = PostgresLikeProfile();
  p.name += "+no-emulation";
  p.tuple_us_per_row = 0.0;
  p.materialization_us_per_row = 0.0;
  p.union_term_overhead_us = 0.0;
  return p;
}

/// The service defaults plus views, which the server turns on by default.
ServiceOptions BenchServiceOptions() {
  ServiceOptions options;
  options.enable_views = true;
  return options;
}

constexpr size_t kMaxRowsDecoded = 100;  // rdfopt_server's --max-rows default.
constexpr size_t kUpdateBatchTriples = 100;
/// Open-loop writer rate of the read-write workload. An update holds the
/// service's graph lock for ~100 ms at this scale; at 4-5 updates/s readers
/// spend half the run stalled and qps spreads by 30-40% between runs, at 2.5
/// by ~12%. A 25 s run therefore times 62 updates, not the 100 a p90 with
/// ten samples beyond it would need.
constexpr double kWriterUpdatesPerSecond = 2.5;
/// Serial ApplyUpdate calls on an idle service after the timed section of
/// the read-only workloads, so every workload reports update latency.
constexpr size_t kProbeUpdates = 100;
/// Untimed closed-loop readers between set-up and the timed section, so
/// allocator arenas and caches of every client thread are warm.
constexpr double kRampSeconds = 2.0;
/// Service constructions (each with its warm-up) whose median is setup_s.
constexpr size_t kSetupRepetitions = 3;
/// A traced run alternates this many untraced/traced slice pairs.
constexpr size_t kTraceSlicePairs = 4;

/// Refuses to measure a configuration whose numbers would not be real work.
std::optional<std::string> GuardViolation(const EngineProfile& profile) {
  if (profile.tuple_us_per_row != 0.0 ||
      profile.materialization_us_per_row != 0.0 ||
      profile.union_term_overhead_us != 0.0) {
    return "engine profile emulates latency";
  }
#ifndef NDEBUG
  return "assertion-enabled (Debug) build";
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "sanitizer build";
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
  return "sanitizer build";
#endif
#endif
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// Workloads.

enum class Stream { kHotRepeat, kDeepCold };

struct Workload {
  std::string name;
  LubmOptions lubm;
  Stream stream = Stream::kHotRepeat;
  /// > 0: an open-loop writer applies updates during the timed section.
  double writer_rate = 0.0;
};

std::optional<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                                     bool small) {
  Workload w;
  w.name = name;
  if (name == "lubm-hot-repeat" || name == "lubm-read-write") {
    w.lubm = LubmOptionsForTripleTarget(1'000'000);
    if (name == "lubm-read-write") w.writer_rate = kWriterUpdatesPerSecond;
  } else if (name == "lubm-deep-cold") {
    // 8 universities keep every seed above 160k triples.
    w.lubm.num_universities = 8;
    w.lubm.fine_grained_specializations = 240;
    w.stream = Stream::kDeepCold;
  } else {
    return std::nullopt;
  }
  if (small) w.lubm.num_universities = 1;
  w.lubm.seed = seed;
  return w;
}

std::string DeptIri(size_t univ, size_t dept) {
  return std::string(kLubmData) + "univ" + std::to_string(univ) + "/dept" +
         std::to_string(dept);
}
std::string UnivIri(size_t univ) {
  return std::string(kLubmData) + "univ" + std::to_string(univ);
}
std::string UbIri(const char* local) { return std::string(kLubmNs) + local; }
std::string Angle(const std::string& iri) { return "<" + iri + ">"; }

/// One request of a read stream: its text and the query the oracle answers
/// for it (the unrenamed original for hot variants).
struct StreamEntry {
  std::string text;
  size_t oracle_query = 0;
  std::string label;  // Source query or template name, for the breakdown.
};

struct Streams {
  std::vector<StreamEntry> reads;
  /// Requests of the warm-up pass, disjoint from `reads` on deep-cold.
  std::vector<std::string> warmup;
  std::vector<Query> oracle_queries;
  std::vector<std::vector<Triple>> updates;
};

/// Renders `query` as SPARQL with every variable renamed at random and the
/// atoms in random order: same canonical key, different text.
std::string RandomVariant(const Query& query, const Dictionary& dict,
                          WorkloadRng* rng) {
  std::vector<std::string> names(query.vars.size());
  for (size_t v = 0; v < names.size(); ++v) {
    names[v] = "?v" + std::to_string(rng->Uniform(1'000'000)) + "_" +
               std::to_string(v);
  }
  const auto term = [&](const PatternTerm& t) {
    return t.is_var() ? names[t.var()] : dict.term(t.value()).Encoded();
  };
  std::vector<TriplePattern> atoms = query.cq.atoms;
  for (size_t i = atoms.size(); i > 1; --i) {
    std::swap(atoms[i - 1], atoms[rng->Uniform(i)]);
  }
  std::string text = "SELECT";
  for (VarId v : query.cq.head) text += " " + names[v];
  text += " WHERE {";
  for (const TriplePattern& a : atoms) {
    text += " " + term(a.s) + " " + term(a.p) + " " + term(a.o) + " .";
  }
  return text + " }";
}

/// Hot-repeat: a seeded draw over the 28 LUBM queries, each request a fresh
/// alpha-renaming and atom permutation that canonicalizes to its original.
Status MakeHotStream(Graph* graph, uint64_t seed, Streams* out) {
  WorkloadRng rng(seed ^ 0x407ull);
  std::vector<std::string> keys;
  for (const BenchmarkQuery& bq : LubmQuerySet()) {
    Result<Query> q = ParseQuery(bq.text, &graph->dict());
    RDFOPT_RETURN_NOT_OK(q.status());
    keys.push_back(Canonicalize(q.ValueOrDie().cq).key);
    out->oracle_queries.push_back(q.TakeValue());
  }
  constexpr size_t kStreamLength = 4096;
  for (size_t i = 0; i < kStreamLength; ++i) {
    const size_t qi = rng.Uniform(out->oracle_queries.size());
    std::string text =
        RandomVariant(out->oracle_queries[qi], graph->dict(), &rng);
    Result<Query> parsed = ParseQuery(text, &graph->dict());
    RDFOPT_RETURN_NOT_OK(parsed.status());
    if (Canonicalize(parsed.ValueOrDie().cq).key != keys[qi]) {
      return Status::Internal("variant does not canonicalize to its " +
                              LubmQuerySet()[qi].name + ": " + text);
    }
    out->reads.push_back({std::move(text), qi, LubmQuerySet()[qi].name});
  }
  // Warm-up: three passes over a variant of every query, so the plan cache
  // holds all 28 plans and the view advisor has run before the clock starts.
  for (size_t pass = 0; pass < 3; ++pass) {
    for (const Query& q : out->oracle_queries) {
      out->warmup.push_back(RandomVariant(q, graph->dict(), &rng));
    }
  }
  return Status::OK();
}

/// Constants of the generated data the deep-cold templates draw from.
struct ColdConstants {
  size_t universities = 0;
  std::vector<std::string> departments;
  std::vector<std::string> professors;
};

ColdConstants CollectColdConstants(const Graph& graph, size_t universities) {
  ColdConstants c;
  c.universities = universities;
  const Dictionary& dict = graph.dict();
  const ValueId type = graph.vocab().rdf_type;
  const ValueId department = dict.LookupIri(UbIri("Department"));
  const ValueId doctoral = dict.LookupIri(UbIri("doctoralDegreeFrom"));
  std::set<ValueId> depts, profs;
  for (const Triple& t : graph.data_triples()) {
    if (t.p == type && t.o == department) depts.insert(t.s);
    // Professors (not lecturers) are the faculty with a doctorate.
    if (t.p == doctoral) profs.insert(t.s);
  }
  for (ValueId d : depts) c.departments.push_back(dict.term(d).Encoded());
  for (ValueId p : profs) c.professors.push_back(dict.term(p).Encoded());
  // Sorted by encoding so the draw is independent of id assignment.
  std::sort(c.departments.begin(), c.departments.end());
  std::sort(c.professors.begin(), c.professors.end());
  return c;
}

/// A deep-cold query template: draws its constants on every call.
struct ColdTemplate {
  const char* name;
  std::function<std::string()> render;
};

/// Deep-cold: LUBM Q07/Q10/Q12/Q20/Q25/Q27/Q28-style templates over constants
/// drawn from the data, with no canonical query repeated in a run. The
/// type-variable templates (Q07, Q12, Q28) cost 0.4-1.5 s of cover search
/// each at this scale, the others 1-40 ms; one heavy request per
/// kColdRound keeps a run at >= 1000 requests, so query_p99_ms lands on
/// the heavy ones and query_p50_ms on the rest. The schedule is fixed, so
/// every seed runs the same template mix.
constexpr size_t kColdRound = 25;
constexpr size_t kColdWarmup = 8;
/// Heavy slots cycle through this pattern (indices into the heavy
/// templates Q07, Q12, Q28). The costliest, Q28, gets one slot in seven, so
/// fewer Q28 requests complete in a run than lie beyond p99, and
/// query_p99_ms falls inside the Q12 cluster. With equal shares it sat on
/// the edge between the Q12 and Q28 clusters and spread by 30% between
/// runs.
constexpr size_t kHeavyPattern[] = {0, 1, 0, 1, 0, 1, 2};

Status MakeColdStream(Graph* graph, size_t universities, uint64_t seed,
                      size_t length, Streams* out) {
  WorkloadRng rng(seed ^ 0xC01Dull);
  const ColdConstants c = CollectColdConstants(*graph, universities);
  if (c.departments.empty() || c.professors.empty()) {
    return Status::Internal("deep-cold constants missing from the data");
  }
  const char* kFaculty[] = {"Faculty", "Professor", "FullProfessor",
                            "AssociateProfessor", "AssistantProfessor",
                            "Employee", "Person", "Chair", "Lecturer"};
  const char* kStudents[] = {"Student", "GraduateStudent", "Person",
                             "TeachingAssistant", "ResearchAssistant"};
  const auto univ = [&] { return Angle(UnivIri(rng.Uniform(c.universities))); };
  const auto dept = [&] {
    return c.departments[rng.Uniform(c.departments.size())];
  };
  const auto prof = [&] {
    return c.professors[rng.Uniform(c.professors.size())];
  };
  const auto faculty = [&] {
    return "ub:" + std::string(kFaculty[rng.Uniform(std::size(kFaculty))]);
  };
  const auto student = [&] {
    return "ub:" + std::string(kStudents[rng.Uniform(std::size(kStudents))]);
  };
  const ColdTemplate heavy[] = {
      {"Q07", [&] {  // A type variable, a degree and a membership constant.
         return "SELECT ?x ?y WHERE { ?x rdf:type ?y . ?x ub:degreeFrom " +
                univ() + " . ?x ub:memberOf " + dept() + " . }";
       }},
      {"Q12", [&] {  // A type variable over one university's staff.
         return "SELECT ?x ?y ?z WHERE { ?x rdf:type ?y . ?x ub:worksFor ?z "
                ". ?z ub:subOrganizationOf " + univ() +
                " . ?x ub:degreeFrom " + univ() + " . }";
       }},
      {"Q28", [&] {  // Two type variables: a professor's advisees and the
                     // colleagues in their department.
         return "SELECT ?x ?u ?y ?v WHERE { ?x rdf:type ?u . ?y rdf:type ?v "
                ". ?x ub:memberOf ?z . ?y ub:memberOf ?z . ?x ub:advisor " +
                prof() + " . ?y ub:doctoralDegreeFrom " + univ() + " . }";
       }},
  };
  const ColdTemplate light[] = {
      {"Q10", [&] {  // A deep faculty class within one department.
         return "SELECT ?x WHERE { ?x ub:worksFor " + dept() +
                " . ?x rdf:type " + faculty() + " . }";
       }},
      {"Q20", [&] {  // A faculty class with a degree constant and advisees.
         return "SELECT ?x ?s WHERE { ?x rdf:type " + faculty() +
                " . ?x ub:degreeFrom " + univ() + " . ?s ub:advisor ?x . "
                "?x ub:worksFor " + dept() + " . }";
       }},
      {"Q25", [&] {  // A student class within one university.
         return "SELECT ?x ?z WHERE { ?x rdf:type " + student() +
                " . ?x ub:memberOf ?z . ?z ub:subOrganizationOf " + univ() +
                " . ?x ub:advisor " + prof() + " . }";
       }},
      {"Q27", [&] {  // Colleagues with degrees from two universities.
         return "SELECT ?x ?y ?z WHERE { ?x ub:memberOf ?z . ?y ub:memberOf "
                "?z . ?x ub:doctoralDegreeFrom " + univ() +
                " . ?y ub:mastersDegreeFrom " + univ() + " . ?y ub:advisor " +
                prof() + " . }";
       }},
  };
  const std::string prefix = "PREFIX ub: <" + std::string(kLubmNs) + "> ";
  std::unordered_set<std::string> seen;
  // Draws a query from `t` whose canonical form is new to this run; a
  // template whose space is used up is skipped.
  const auto draw = [&](const ColdTemplate& t,
                        Result<Query>* parsed) -> std::optional<std::string> {
    for (int attempt = 0; attempt < 64; ++attempt) {
      std::string text = prefix + t.render();
      *parsed = ParseQuery(text, &graph->dict());
      if (!parsed->ok()) return std::nullopt;
      if (seen.insert(Canonicalize(parsed->ValueOrDie().cq).key).second) {
        return text;
      }
    }
    return std::nullopt;
  };
  Result<Query> parsed = Status::Internal("unset");
  for (size_t i = 0; out->warmup.size() < kColdWarmup; ++i) {
    std::optional<std::string> text = draw(light[i % std::size(light)],
                                           &parsed);
    RDFOPT_RETURN_NOT_OK(parsed.status());
    if (text.has_value()) out->warmup.push_back(std::move(*text));
  }
  for (size_t i = 0; out->reads.size() < length; ++i) {
    if (i > 4 * length) {
      return Status::Internal("deep-cold template space exhausted");
    }
    const size_t slot = i % kColdRound;
    const ColdTemplate& t =
        slot == 0 ? heavy[kHeavyPattern[(i / kColdRound) %
                                        std::size(kHeavyPattern)]]
                  : light[(slot - 1) % std::size(light)];
    std::optional<std::string> text = draw(t, &parsed);
    RDFOPT_RETURN_NOT_OK(parsed.status());
    if (!text.has_value()) continue;
    out->reads.push_back(
        {std::move(*text), out->oracle_queries.size(), t.name});
    out->oracle_queries.push_back(parsed.TakeValue());
  }
  return Status::OK();
}

/// Data-only update batches: new graduate students enrolled in existing
/// departments, each with a type, a membership, a course and an advisor.
/// Interned here, before any service exists (ApplyUpdate rejects unknown
/// ids).
std::vector<std::vector<Triple>> MakeUpdateBatches(Graph* graph,
                                                   size_t universities,
                                                   size_t count,
                                                   uint64_t seed) {
  WorkloadRng rng(seed ^ 0x0BADA7Eull);
  Dictionary& dict = graph->dict();
  const ValueId type = graph->vocab().rdf_type;
  const ValueId grad = dict.InternIri(UbIri("GraduateStudent"));
  const ValueId member_of = dict.InternIri(UbIri("memberOf"));
  const ValueId takes = dict.InternIri(UbIri("takesCourse"));
  const ValueId advisor = dict.InternIri(UbIri("advisor"));
  std::vector<std::vector<Triple>> batches(count);
  for (size_t b = 0; b < count; ++b) {
    for (size_t i = 0; i < kUpdateBatchTriples / 4; ++i) {
      // Every university has >= 12 departments, each with >= 12 graduate
      // courses and >= 6 full professors (workload/lubm.cc).
      const std::string d =
          DeptIri(rng.Uniform(universities), rng.Uniform(12));
      const ValueId s = dict.InternIri(d + "/newgrad" + std::to_string(b) +
                                       "_" + std::to_string(i));
      batches[b].push_back({s, type, grad});
      batches[b].push_back({s, member_of, dict.InternIri(d)});
      batches[b].push_back(
          {s, takes,
           dict.InternIri(d + "/gradCourse" + std::to_string(rng.Uniform(12)))});
      batches[b].push_back(
          {s, advisor,
           dict.InternIri(d + "/full" + std::to_string(rng.Uniform(6)))});
    }
  }
  return batches;
}

// ---------------------------------------------------------------------------
// Measurement records.

/// Order-insensitive fingerprint of an answer's rows (columns in head order).
uint64_t Fingerprint(const Relation& r) {
  uint64_t hash = 0x9E3779B97F4A7C15ull * (r.arity() + 1);
  for (size_t i = 0; i < r.num_rows(); ++i) {
    uint64_t row_hash = 0xCBF29CE484222325ull;
    for (ValueId v : r.row(i)) {
      row_hash ^= v;
      row_hash *= 0x100000001B3ull;
    }
    hash += row_hash ^ (row_hash >> 29);
  }
  return hash;
}

struct ReadRecord {
  double start_ms = 0.0;  // Relative to the timed section's origin.
  double end_ms = 0.0;
  double latency_ms = 0.0;
  bool ok = false;
  size_t entry = 0;  // Index into Streams::reads.
  Epoch epoch = 0;
  uint64_t fingerprint = 0;
  size_t rows = 0;
  bool cache_hit = false;
  double queue_wait_ms = 0.0;
  double optimize_ms = 0.0;
  double reformulate_ms = 0.0;
  double plan_ms = 0.0;
  double evaluate_ms = 0.0;
  double total_ms = 0.0;
  size_t union_terms = 0;
  size_t union_terms_collapsed = 0;
  size_t rows_scanned = 0;
  size_t hash_probes = 0;
  size_t bytes_materialized = 0;
  // Benchmark-owned spans, traced phases only.
  double parse_us = 0.0;
  double canonicalize_us = 0.0;
  double decode_us = 0.0;
  size_t decoded_rows = 0;
};

struct UpdateRecord {
  double scheduled_ms = 0.0;  // Relative to the timed section's origin.
  double start_ms = 0.0;
  double end_ms = 0.0;
  bool ok = false;
  double latency_ms() const { return end_ms - scheduled_ms; }
  double service_ms() const { return end_ms - start_ms; }
  double lag_ms() const { return start_ms - scheduled_ms; }
};

/// Service counters a phase reports as deltas.
struct Counters {
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t view_hits = 0;
  uint64_t view_lookups = 0;
  uint64_t covers_examined = 0;

  static Counters Of(const QueryService& service) {
    const QueryService::Stats s = service.stats();
    return {s.cache.hits, s.cache.misses, s.views.hits, s.views.lookups,
            MetricsRegistry::Global()
                .GetCounter("optimizer.covers_examined")
                ->value()};
  }
  Counters operator-(const Counters& o) const {
    return {cache_hits - o.cache_hits, cache_misses - o.cache_misses,
            view_hits - o.view_hits, view_lookups - o.view_lookups,
            covers_examined - o.covers_examined};
  }
  Counters& operator+=(const Counters& o) {
    cache_hits += o.cache_hits;
    cache_misses += o.cache_misses;
    view_hits += o.view_hits;
    view_lookups += o.view_lookups;
    covers_examined += o.covers_examined;
    return *this;
  }
};

/// What one or more timed slices of one mode (traced or not) measured.
struct PhaseResult {
  std::vector<ReadRecord> reads;
  std::vector<UpdateRecord> updates;
  /// Length of the timed windows, and the reads that completed inside them.
  /// Requests still running at the deadline complete but are not counted,
  /// so a few 1 s deep-cold requests overrunning it do not skew qps.
  double window_ms = 0.0;
  size_t completed_in_window = 0;
  Counters counters;

  void Append(const PhaseResult& other) {
    reads.insert(reads.end(), other.reads.begin(), other.reads.end());
    updates.insert(updates.end(), other.updates.begin(), other.updates.end());
    window_ms += other.window_ms;
    completed_in_window += other.completed_in_window;
    counters += other.counters;
  }
  double qps() const {
    return window_ms > 0.0
               ? static_cast<double>(completed_in_window) / (window_ms / 1e3)
               : 0.0;
  }
};

void FillFromOutcome(const ServiceOutcome& o, ReadRecord* r) {
  r->ok = true;
  r->epoch = o.epoch;
  r->rows = o.answers.num_rows();
  r->cache_hit = o.cache_hit;
  r->queue_wait_ms = o.queue_wait_ms;
  r->optimize_ms = o.optimize_ms;
  r->reformulate_ms = o.reformulate_ms;
  r->plan_ms = o.plan_ms;
  r->evaluate_ms = o.evaluate_ms;
  r->total_ms = o.total_ms;
  r->union_terms = o.union_terms;
  r->union_terms_collapsed = o.eval.union_terms_collapsed;
  r->rows_scanned = o.eval.rows_scanned;
  r->hash_probes = o.eval.hash_probes;
  r->bytes_materialized = o.eval.bytes_materialized;
}

/// One request as the server serves it: AnswerText, then DecodeRow on up to
/// kMaxRowsDecoded rows. Traced requests first re-run the parser (into a
/// client-private dictionary, so the service's is untouched) and the
/// canonicalizer on the same text, each inside a benchmark span.
ReadRecord Serve(QueryService* service, const std::string& text, bool traced,
                 Dictionary* probe_dict, Clock::time_point origin) {
  ReadRecord rec;
  if (traced) {
    const Clock::time_point t0 = Clock::now();
    Result<Query> parsed = ParseQuery(text, probe_dict);
    const Clock::time_point t1 = Clock::now();
    if (parsed.ok()) Canonicalize(parsed.ValueOrDie().cq);
    rec.parse_us = MsBetween(t0, t1) * 1e3;
    rec.canonicalize_us = MsBetween(t1, Clock::now()) * 1e3;
  }
  const Clock::time_point start = Clock::now();
  Result<ServiceOutcome> result = service->AnswerText(text);
  if (result.ok()) {
    const ServiceOutcome& o = result.ValueOrDie();
    const size_t shown = std::min(o.answers.num_rows(), kMaxRowsDecoded);
    const Clock::time_point d0 = Clock::now();
    for (size_t i = 0; i < shown; ++i) service->DecodeRow(o.answers, i);
    rec.decode_us = MsBetween(d0, Clock::now()) * 1e3;
    rec.decoded_rows = shown;
  }
  const Clock::time_point end = Clock::now();
  rec.start_ms = MsBetween(origin, start);
  rec.end_ms = MsBetween(origin, end);
  rec.latency_ms = MsBetween(start, end);
  if (result.ok()) {
    FillFromOutcome(result.ValueOrDie(), &rec);
    rec.fingerprint = Fingerprint(result.ValueOrDie().answers);
  }
  return rec;
}

size_t ClientThreads() {
  const size_t cores = std::max(1u, std::thread::hardware_concurrency());
  return std::min<size_t>(4, cores);
}

/// One timed slice: closed-loop readers over the stream (sharing one
/// cursor, so deep-cold never repeats a query) and, when the workload has a
/// writer, an open-loop writer applying update batches on a fixed schedule
/// and timing each from its scheduled send time. Record times are relative
/// to `origin`.
PhaseResult RunPhase(QueryService* service, const Workload& w,
                     const Streams& streams, double seconds, bool traced,
                     bool writer, Clock::time_point origin,
                     std::atomic<size_t>* cursor, size_t* next_update) {
  const size_t threads = ClientThreads();
  const size_t readers = writer ? std::max<size_t>(1, threads - 1) : threads;
  const bool cold = w.stream == Stream::kDeepCold;

  PhaseResult phase;
  const Counters before = Counters::Of(*service);
  std::vector<std::vector<ReadRecord>> per_client(readers);
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));

  std::vector<std::thread> pool;
  for (size_t c = 0; c < readers; ++c) {
    pool.emplace_back([&, c] {
      Dictionary probe_dict;
      std::vector<ReadRecord>& out = per_client[c];
      while (Clock::now() < deadline) {
        size_t i = cursor->fetch_add(1);
        if (cold && i >= streams.reads.size()) {
          std::fprintf(stderr, "deep-cold stream exhausted\n");
          break;
        }
        i %= streams.reads.size();
        ReadRecord rec = Serve(service, streams.reads[i].text, traced,
                               &probe_dict, origin);
        rec.entry = i;
        out.push_back(rec);
      }
    });
  }
  if (writer) {
    pool.emplace_back([&] {
      const size_t scheduled =
          static_cast<size_t>(std::floor(seconds * w.writer_rate));
      for (size_t k = 0;
           k < scheduled && *next_update < streams.updates.size(); ++k) {
        const Clock::time_point due =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(k / w.writer_rate));
        std::this_thread::sleep_until(due);
        UpdateRecord u;
        u.scheduled_ms = MsBetween(origin, due);
        u.start_ms = MsBetween(origin, Clock::now());
        u.ok = service->ApplyUpdate(streams.updates[(*next_update)++]).ok();
        u.end_ms = MsBetween(origin, Clock::now());
        phase.updates.push_back(u);
      }
    });
  }
  for (std::thread& t : pool) t.join();
  phase.window_ms = seconds * 1e3;
  phase.counters = Counters::Of(*service) - before;
  const double deadline_ms = MsBetween(origin, deadline);
  for (std::vector<ReadRecord>& v : per_client) {
    for (const ReadRecord& r : v) {
      if (r.end_ms <= deadline_ms) ++phase.completed_in_window;
    }
    phase.reads.insert(phase.reads.end(), v.begin(), v.end());
  }
  return phase;
}

/// Serial ApplyUpdate calls (closed loop, no readers): update latency for
/// the workloads without a writer, each timed from its own start.
std::vector<UpdateRecord> RunUpdateProbe(QueryService* service,
                                         const Streams& streams,
                                         size_t* next_update) {
  std::vector<UpdateRecord> out;
  const Clock::time_point start = Clock::now();
  while (*next_update < streams.updates.size()) {
    UpdateRecord u;
    u.start_ms = u.scheduled_ms = MsBetween(start, Clock::now());
    u.ok = service->ApplyUpdate(streams.updates[(*next_update)++]).ok();
    u.end_ms = MsBetween(start, Clock::now());
    out.push_back(u);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Answer oracle: saturation answering (paper Thm 3.1) on the same data, at
// the epoch each answer reports.

struct OracleResult {
  size_t checked = 0;
  size_t mismatches = 0;
  std::vector<std::string> examples;
};

/// Checks every successful read. Epoch `base_epoch + k` holds the base data
/// plus the first k update batches. Each batch is saturated on its own (RDFS
/// entailment of data triples is per-triple under a fixed schema) and merged
/// into the running saturated store; a from-scratch TripleStore::Build of
/// the final epoch cross-checks the merges, so the oracle relies on neither
/// IncrementalSaturate nor an unchecked TripleStore::Merge.
OracleResult CheckAnswers(const std::vector<const ReadRecord*>& reads,
                          const Streams& streams,
                          const std::vector<Triple>& base_data,
                          const Graph& graph, Epoch base_epoch,
                          const EngineProfile& profile) {
  OracleResult result;
  std::map<Epoch, std::vector<const ReadRecord*>> by_epoch;
  for (const ReadRecord* r : reads) by_epoch[r->epoch].push_back(r);
  if (by_epoch.empty()) return result;

  const Schema& schema = graph.schema();
  const Vocabulary& vocab = graph.vocab();
  const TripleStore data = TripleStore::Build(base_data);
  const Statistics stats = Statistics::Compute(data);
  TripleStore saturated = Saturate(data, schema, vocab).store;
  const auto all_of = [](const TripleStore& store) {
    return store.Match(kAnyValue, kAnyValue, kAnyValue);
  };
  std::vector<Triple> from_scratch(all_of(saturated).begin(),
                                   all_of(saturated).end());
  size_t applied = 0;

  for (auto& [epoch, group] : by_epoch) {
    const size_t want = static_cast<size_t>(epoch - base_epoch);
    if (epoch < base_epoch || want > streams.updates.size()) {
      result.mismatches += group.size();
      result.examples.push_back("answer at unknown epoch " +
                                std::to_string(epoch));
      continue;
    }
    while (applied < want) {
      const TripleStore delta =
          Saturate(TripleStore::Build(streams.updates[applied++]), schema,
                   vocab)
              .store;
      from_scratch.insert(from_scratch.end(), all_of(delta).begin(),
                          all_of(delta).end());
      saturated = TripleStore::Merge(saturated, delta);
    }
    std::vector<size_t> queries;
    for (const ReadRecord* r : group) {
      queries.push_back(streams.reads[r->entry].oracle_query);
    }
    std::sort(queries.begin(), queries.end());
    queries.erase(std::unique(queries.begin(), queries.end()), queries.end());

    struct Expected {
      bool ok = false;
      uint64_t fingerprint = 0;
      size_t rows = 0;
    };
    std::vector<Expected> expected(queries.size());
    std::atomic<size_t> next{0};
    std::vector<std::thread> pool;
    for (size_t t = 0; t < ClientThreads(); ++t) {
      pool.emplace_back([&] {
        QueryAnswerer answerer(&data, &saturated, &schema, &vocab, &stats,
                               &profile);
        AnswerOptions options;
        options.strategy = Strategy::kSaturation;
        for (size_t i = next++; i < queries.size(); i = next++) {
          Result<AnswerOutcome> a =
              answerer.Answer(streams.oracle_queries[queries[i]], options);
          if (!a.ok()) continue;
          expected[i] = {true, Fingerprint(a.ValueOrDie().answers),
                         a.ValueOrDie().answers.num_rows()};
        }
      });
    }
    for (std::thread& t : pool) t.join();

    for (const ReadRecord* r : group) {
      const size_t qi = streams.reads[r->entry].oracle_query;
      const size_t slot = static_cast<size_t>(
          std::lower_bound(queries.begin(), queries.end(), qi) -
          queries.begin());
      const Expected& e = expected[slot];
      ++result.checked;
      if (!e.ok || e.fingerprint != r->fingerprint || e.rows != r->rows) {
        ++result.mismatches;
        if (result.examples.size() < 5) {
          result.examples.push_back(
              "epoch " + std::to_string(epoch) + ": got " +
              std::to_string(r->rows) + " rows, saturation gives " +
              (e.ok ? std::to_string(e.rows) : std::string("an error")) +
              " for: " + streams.reads[r->entry].text);
        }
      }
    }
  }
  if (applied > 0) {
    const TripleStore rebuilt = TripleStore::Build(std::move(from_scratch));
    if (!std::ranges::equal(all_of(rebuilt), all_of(saturated))) {
      ++result.mismatches;
      result.examples.push_back(
          "merged oracle store differs from a from-scratch build");
    }
  }
  return result;
}

// ---------------------------------------------------------------------------
// Layer replays (traced runs): the storage and reasoner calls a snapshot
// build makes, timed on a private copy of the data.

struct LayerReplay {
  double build_ms = 0.0;
  double saturate_ms = 0.0;
  double statistics_ms = 0.0;
  std::vector<double> delta_build_ms, merge_ms, incremental_saturate_ms,
      delta_statistics_ms;
};

/// Replays set-up (Build, Saturate, Statistics::Compute over the base data)
/// and a chain of the first kReplayedUpdates update batches through
/// Build/Merge, IncrementalSaturate and Statistics::Compute, as
/// QueryService::ApplyUpdate makes them for a data-only delta.
constexpr size_t kReplayedUpdates = 10;

LayerReplay ReplayLayers(const std::vector<Triple>& base_data,
                         const Graph& graph,
                         const std::vector<std::vector<Triple>>& updates) {
  LayerReplay r;
  Clock::time_point t = Clock::now();
  const auto lap = [&t] {
    const Clock::time_point now = Clock::now();
    const double ms = MsBetween(t, now);
    t = now;
    return ms;
  };
  TripleStore data = TripleStore::Build(base_data);
  r.build_ms = lap();
  TripleStore saturated =
      Saturate(data, graph.schema(), graph.vocab()).store;
  r.saturate_ms = lap();
  Statistics stats = Statistics::Compute(data);
  r.statistics_ms = lap();
  for (size_t k = 0; k < std::min(kReplayedUpdates, updates.size()); ++k) {
    lap();
    TripleStore delta = TripleStore::Build(updates[k]);
    r.delta_build_ms.push_back(lap());
    data = TripleStore::Merge(data, delta);
    r.merge_ms.push_back(lap());
    saturated = IncrementalSaturate(saturated, updates[k], graph.schema(),
                                    graph.vocab())
                    .store;
    r.incremental_saturate_ms.push_back(lap());
    stats = Statistics::Compute(data);
    r.delta_statistics_ms.push_back(lap());
  }
  return r;
}

// ---------------------------------------------------------------------------
// Statistics and reporting.

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const size_t index = static_cast<size_t>(std::max(rank, 1.0)) - 1;
  return v[std::min(index, v.size() - 1)];
}
double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

class Report {
 public:
  void Add(std::string name, double value, std::string unit) {
    metrics_.push_back({std::move(name), value, std::move(unit)});
  }
  const std::vector<Metric>& metrics() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

void Number(JsonWriter* json, double value) {
  if (!std::isfinite(value)) {
    json->Raw("null");
    return;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  json->Raw(buf);
}

void WriteMetrics(JsonWriter* json, const std::vector<Metric>& metrics) {
  json->BeginObject();
  for (const Metric& m : metrics) {
    json->Key(m.name).BeginObject();
    json->Key("value");
    Number(json, m.value);
    json->Key("unit").Value(m.unit);
    json->EndObject();
  }
  json->EndObject();
}

void WriteProfile(JsonWriter* json, const EngineProfile& p) {
  json->BeginObject();
  json->Key("name").Value(p.name);
  json->Key("max_union_terms").Value(uint64_t{p.max_union_terms});
  json->Key("max_materialized_cells").Value(uint64_t{p.max_materialized_cells});
  json->Key("tuple_us_per_row");
  Number(json, p.tuple_us_per_row);
  json->Key("materialization_us_per_row");
  Number(json, p.materialization_us_per_row);
  json->Key("union_term_overhead_us");
  Number(json, p.union_term_overhead_us);
  json->Key("timeout_seconds");
  Number(json, p.timeout_seconds);
  json->Key("worker_threads").Value(uint64_t{p.worker_threads});
  json->Key("vector_width").Value(uint64_t{p.vector_width});
  json->Key("share_union_subplans").Value(p.share_union_subplans);
  json->Key("hierarchy_ranges").Value(p.hierarchy_ranges);
  json->Key("prefetch_probes").Value(p.prefetch_probes);
  json->Key("cost").BeginObject();
  const std::pair<const char*, double> constants[] = {
      {"c_db", p.cost.c_db}, {"c_t", p.cost.c_t},   {"c_r", p.cost.c_r},
      {"c_j", p.cost.c_j},   {"c_m", p.cost.c_m},   {"c_l", p.cost.c_l},
      {"c_k", p.cost.c_k},   {"c_union_term", p.cost.c_union_term}};
  for (const auto& [name, value] : constants) {
    json->Key(name);
    Number(json, value);
  }
  json->EndObject();
  json->EndObject();
}

void WriteServiceOptions(JsonWriter* json, const ServiceOptions& o) {
  json->BeginObject();
  json->Key("strategy").Value(std::string(StrategyName(o.answer.strategy)));
  json->Key("optimizer_time_budget_s");
  Number(json, o.answer.optimizer_time_budget_s);
  json->Key("max_reformulation_disjuncts")
      .Value(uint64_t{o.answer.max_reformulation_disjuncts});
  json->Key("cache_bytes").Value(uint64_t{o.cache_bytes});
  json->Key("enable_cache").Value(o.enable_cache);
  json->Key("max_concurrent").Value(uint64_t{o.max_concurrent});
  json->Key("max_queue").Value(uint64_t{o.max_queue});
  json->Key("default_deadline_ms");
  Number(json, o.default_deadline_ms);
  json->Key("enable_feedback").Value(o.enable_feedback);
  json->Key("enable_slow_log").Value(o.enable_slow_log);
  json->Key("slow_query_ms");
  Number(json, o.slow_query_ms);
  json->Key("enable_views").Value(o.enable_views);
  json->Key("view_bytes").Value(uint64_t{o.view_bytes});
  json->Key("view_advisor_interval").Value(uint64_t{o.view_advisor_interval});
  json->Key("view_pin_limit").Value(uint64_t{o.view_pin_limit});
  json->Key("view_min_observations").Value(o.view_min_observations);
  json->EndObject();
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

double Ratio(uint64_t num, uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

/// What the per-layer metrics of a traced run are computed from.
struct TracedRun {
  const PhaseResult* traced;
  double untraced_qps;
  /// Misses of the last set-up's warm-up: hot-repeat's timed sections only
  /// hit, so its miss-path phases come from here.
  const std::vector<ReadRecord>* warmup_misses;
  uint64_t warmup_covers_examined;
  size_t view_bytes;
  /// The ApplyUpdate calls service.update_other_ms is attributed from.
  const std::vector<UpdateRecord>* updates;
  bool writer;
  LayerReplay replay;
};

void AddLayerMetrics(const TracedRun& run, Report* layers, Report* context) {
  const PhaseResult& tp = *run.traced;
  std::vector<double> parse, canon, queue, overhead, evaluate;
  double decode_us = 0.0, decoded = 0.0, scanned = 0.0, answer_rows = 0.0;
  double probes = 0.0, bytes = 0.0, collapsed = 0.0;
  for (const ReadRecord& r : tp.reads) {
    if (!r.ok) continue;
    parse.push_back(r.parse_us);
    canon.push_back(r.canonicalize_us);
    queue.push_back(r.queue_wait_ms);
    overhead.push_back(r.total_ms - r.queue_wait_ms - r.optimize_ms -
                       r.reformulate_ms - r.plan_ms - r.evaluate_ms);
    evaluate.push_back(r.evaluate_ms);
    decode_us += r.decode_us;
    decoded += static_cast<double>(r.decoded_rows);
    scanned += static_cast<double>(r.rows_scanned);
    answer_rows += static_cast<double>(r.rows);
    probes += static_cast<double>(r.hash_probes);
    bytes += static_cast<double>(r.bytes_materialized);
    collapsed += static_cast<double>(r.union_terms_collapsed);
  }
  std::vector<ReadRecord> misses = *run.warmup_misses;
  for (const ReadRecord& r : tp.reads) {
    if (r.ok && !r.cache_hit) misses.push_back(r);
  }
  std::vector<double> cover, reformulate, plan, union_terms;
  for (const ReadRecord& r : misses) {
    cover.push_back(r.optimize_ms);
    reformulate.push_back(r.reformulate_ms);
    plan.push_back(r.plan_ms);
    union_terms.push_back(static_cast<double>(r.union_terms));
  }
  const double n = std::max<double>(1.0, static_cast<double>(parse.size()));
  const Counters& c = tp.counters;
  const uint64_t lookups = c.cache_hits + c.cache_misses;

  layers->Add("sparql.parse_us", Median(parse), "us");
  layers->Add("service.canonicalize_us", Median(canon), "us");
  layers->Add("service.cache_hit_ratio", Ratio(c.cache_hits, lookups),
              "ratio");
  context->Add("service.cache_lookups", static_cast<double>(lookups),
               "count");
  layers->Add("service.queue_wait_p50_ms", Percentile(queue, 0.50), "ms");
  layers->Add("service.queue_wait_p99_ms", Percentile(queue, 0.99), "ms");
  layers->Add("service.overhead_ms", Median(overhead), "ms");
  layers->Add("service.decode_us_per_row",
              decoded > 0 ? decode_us / decoded : 0.0, "us");
  layers->Add("optimizer.cover_search_p50_ms", Percentile(cover, 0.50), "ms");
  layers->Add("optimizer.cover_search_p99_ms", Percentile(cover, 0.99), "ms");
  layers->Add("optimizer.covers_examined",
              Ratio(run.warmup_covers_examined + c.covers_examined,
                    misses.size()),
              "count");
  context->Add("optimizer.misses", static_cast<double>(misses.size()),
               "count");
  layers->Add("reformulation.reformulate_ms", Median(reformulate), "ms");
  layers->Add("reformulation.union_terms", Median(union_terms), "count");
  layers->Add("engine.plan_ms", Median(plan), "ms");
  layers->Add("engine.union_terms_collapsed", collapsed / n, "count");
  layers->Add("engine.evaluate_p50_ms", Percentile(evaluate, 0.50), "ms");
  layers->Add("engine.evaluate_p99_ms", Percentile(evaluate, 0.99), "ms");
  layers->Add("engine.rows_scanned_per_answer_row",
              answer_rows > 0 ? scanned / answer_rows : 0.0, "ratio");
  context->Add("engine.answer_rows", answer_rows / n, "count");
  layers->Add("engine.hash_probes", probes / n, "count");
  layers->Add("engine.bytes_materialized", bytes / n, "bytes");
  layers->Add("views.hit_ratio", Ratio(c.view_hits, c.view_lookups), "ratio");
  context->Add("views.lookups", static_cast<double>(c.view_lookups), "count");
  layers->Add("views.bytes", static_cast<double>(run.view_bytes), "bytes");

  const LayerReplay& replay = run.replay;
  layers->Add("storage.build_ms", replay.build_ms, "ms");
  layers->Add("reasoner.saturate_ms", replay.saturate_ms, "ms");
  layers->Add("storage.setup_statistics_ms", replay.statistics_ms, "ms");
  const double delta_build = Median(replay.delta_build_ms);
  const double merge = Median(replay.merge_ms);
  const double incremental = Median(replay.incremental_saturate_ms);
  const double statistics = Median(replay.delta_statistics_ms);
  layers->Add("storage.delta_build_ms", delta_build, "ms");
  layers->Add("storage.merge_ms", merge, "ms");
  layers->Add("reasoner.incremental_saturate_ms", incremental, "ms");
  layers->Add("storage.statistics_ms", statistics, "ms");
  // ApplyUpdate's own time (not its schedule lag) minus the replayed layer
  // calls: schema replay, snapshot install and view maintenance.
  std::vector<double> apply_ms;
  for (const UpdateRecord& u : *run.updates) apply_ms.push_back(u.service_ms());
  layers->Add("service.update_other_ms",
              Median(apply_ms) - delta_build - merge - incremental - statistics,
              "ms");
  const double traced_qps = tp.qps();
  layers->Add("bench.tracing_overhead_pct",
              traced_qps > 0 ? (run.untraced_qps / traced_qps - 1.0) * 100.0
                             : 0.0,
              "%");

  if (run.writer) {
    std::vector<double> overlapping;
    for (const ReadRecord& r : tp.reads) {
      for (const UpdateRecord& u : tp.updates) {
        if (r.start_ms < u.end_ms && u.start_ms < r.end_ms) {
          overlapping.push_back(r.latency_ms);
          break;
        }
      }
    }
    context->Add("service.read_p99_overlapping_update_ms",
                 Percentile(overlapping, 0.99), "ms");
    context->Add("service.reads_overlapping_update",
                 static_cast<double>(overlapping.size()), "count");
  }
}

// ---------------------------------------------------------------------------
// Driver.

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool small = false;
  std::string git_sha = "unknown";
  std::string source_sha = "unknown";
};

std::optional<Args> ParseArgs(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const bool has_value = i + 1 < argc;
    if (flag == "--small") {
      a.small = true;
    } else if (!has_value) {
      return std::nullopt;
    } else if (flag == "--workload") {
      a.workload = argv[++i];
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::atof(argv[++i]);
    } else if (flag == "--trace") {
      a.trace = std::string(argv[++i]) == "1";
    } else if (flag == "--git-sha") {
      a.git_sha = argv[++i];
    } else if (flag == "--source-sha") {
      a.source_sha = argv[++i];
    } else {
      return std::nullopt;
    }
  }
  if (!have_workload || !(a.seconds > 0.0)) return std::nullopt;
  return a;
}

int Fail(const std::string& message) {
  std::fprintf(stderr, "serving_bench: %s\n", message.c_str());
  return 1;
}

int Main(int argc, char** argv) {
#ifdef __GLIBC__
  // glibc moves its mmap and trim thresholds with the allocation history.
  // Under the defaults, ApplyUpdate alternates between reusing freed index
  // buffers and page-faulting tens of MB of fresh ones (+20-30 ms), so
  // update_p90_ms straddles two clusters and swung by 30% between runs.
  // Fixed thresholds keep freed buffers in the heap.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
#endif
  const std::optional<Args> parsed_args = ParseArgs(argc, argv);
  if (!parsed_args.has_value()) {
    return Fail(
        "usage: serving_bench --workload NAME --seed N --seconds S "
        "--trace 0|1 [--small] [--git-sha SHA] [--source-sha SHA]");
  }
  const Args& args = *parsed_args;
  const std::optional<Workload> workload =
      MakeWorkload(args.workload, args.seed, args.small);
  if (!workload.has_value()) {
    return Fail("unknown workload '" + args.workload +
                "' (lubm-hot-repeat, lubm-deep-cold, lubm-read-write)");
  }
  const Workload& w = *workload;
  const bool writer = w.writer_rate > 0.0;
  const EngineProfile profile = BenchProfile();
  const ServiceOptions service_options = BenchServiceOptions();
  if (std::optional<std::string> violation = GuardViolation(profile)) {
    return Fail("refusing to report: " + *violation);
  }

  // Wall time of each stage, on stderr, for sizing runs.
  Clock::time_point stage_start = Clock::now();
  const auto stage = [&stage_start](const char* name) {
    const Clock::time_point now = Clock::now();
    std::fprintf(stderr, "stage %-8s %8.2f s\n", name,
                 MsBetween(stage_start, now) / 1e3);
    stage_start = now;
  };

  // Inputs, all from the seed, before any clock starts.
  Graph graph;
  GenerateLubm(w.lubm, &graph);
  graph.FinalizeSchema();
  const std::vector<Triple> base_data = graph.data_triples();
  Streams streams;
  const Status made =
      w.stream == Stream::kHotRepeat
          ? MakeHotStream(&graph, args.seed, &streams)
          : MakeColdStream(&graph, w.lubm.num_universities, args.seed,
                           args.small ? 2000 : 20000, &streams);
  if (!made.ok()) return Fail("stream generation: " + made.ToString());
  const size_t update_count =
      writer ? static_cast<size_t>(std::floor(args.seconds * w.writer_rate))
          : (args.small ? 10 : kProbeUpdates);
  streams.updates = MakeUpdateBatches(&graph, w.lubm.num_universities,
                                      update_count, args.seed);

  stage("inputs");

  // Set-up: service construction plus warm-up, repeated; the last one serves.
  std::vector<double> setup_s;
  std::vector<ReadRecord> warmup_misses;
  std::unique_ptr<QueryService> service;
  size_t warmup_failures = 0;
  uint64_t warmup_covers_examined = 0;
  for (size_t rep = 0; rep < kSetupRepetitions; ++rep) {
    service.reset();
    warmup_misses.clear();
    const Clock::time_point t0 = Clock::now();
    service = std::make_unique<QueryService>(&graph, profile, service_options);
    const uint64_t covers_before = Counters::Of(*service).covers_examined;
    for (const std::string& text : streams.warmup) {
      Result<ServiceOutcome> r = service->AnswerText(text);
      if (!r.ok()) {
        ++warmup_failures;
        std::fprintf(stderr, "warm-up request failed: %s: %s\n",
                     r.status().ToString().c_str(), text.c_str());
        continue;
      }
      ReadRecord rec;
      FillFromOutcome(r.ValueOrDie(), &rec);
      if (!rec.cache_hit) warmup_misses.push_back(rec);
    }
    setup_s.push_back(MsBetween(t0, Clock::now()) / 1e3);
    warmup_covers_examined =
        Counters::Of(*service).covers_examined - covers_before;
  }
  if (warmup_failures > 0) {
    return Fail(std::to_string(warmup_failures) + " warm-up requests failed");
  }
  const Epoch base_epoch = service->epoch();
  stage("setup");

  // Timed sections. A traced run alternates untraced and traced slices on
  // the same service and streams, so drift (data growth, warming) falls on
  // both modes alike; their qps gap is the tracing overhead.
  std::atomic<size_t> cursor{0};
  size_t next_update = 0;
  PhaseResult untraced, traced;
  PhaseResult ramp =
      RunPhase(service.get(), w, streams, args.small ? 0.5 : kRampSeconds,
               false, /*writer=*/false, Clock::now(), &cursor, &next_update);
  const Clock::time_point origin = Clock::now();
  if (args.trace) {
    for (size_t slice = 0; slice < 2 * kTraceSlicePairs; ++slice) {
      const bool traced_slice = slice % 2 == 1;
      (traced_slice ? traced : untraced)
          .Append(RunPhase(service.get(), w, streams,
                           args.seconds / (2 * kTraceSlicePairs),
                           traced_slice, writer, origin, &cursor,
                           &next_update));
    }
  } else {
    untraced = RunPhase(service.get(), w, streams, args.seconds, false, writer,
                        origin, &cursor, &next_update);
  }
  stage("timed");
  const size_t view_bytes = service->stats().views.bytes;
  service.reset();
  // The read-only workloads time ApplyUpdate on a freshly built, idle
  // service: no cached plans and no pinned views, so the probe measures the
  // storage, reasoner and snapshot path rather than which views the read
  // stream happened to pin.
  std::vector<UpdateRecord> probe;
  if (!writer) {
    QueryService idle(&graph, profile, service_options);
    probe = RunUpdateProbe(&idle, streams, &next_update);
    stage("probe");
  }
  const double peak_rss_mb = PeakRssMb();
  const size_t data_triples = base_data.size();

  // Oracle over every read of every phase.
  std::vector<const ReadRecord*> all_reads;
  size_t read_failures = 0;
  for (const PhaseResult* p : {&ramp, &untraced, &traced}) {
    for (const ReadRecord& r : p->reads) {
      if (r.ok) {
        all_reads.push_back(&r);
      } else {
        ++read_failures;
      }
    }
  }
  const OracleResult oracle =
      CheckAnswers(all_reads, streams, base_data, graph, base_epoch, profile);
  for (const std::string& e : oracle.examples) {
    std::fprintf(stderr, "answer mismatch: %s\n", e.c_str());
  }
  stage("oracle");
  std::vector<UpdateRecord> all_updates = probe;
  for (const PhaseResult* p : {&untraced, &traced}) {
    all_updates.insert(all_updates.end(), p->updates.begin(),
                       p->updates.end());
  }
  size_t update_failures = 0;
  for (const UpdateRecord& u : all_updates) update_failures += u.ok ? 0 : 1;
  const size_t attempted = all_reads.size() + read_failures +
                           all_updates.size();
  const size_t failed = read_failures + update_failures + oracle.mismatches;

  // End-to-end metrics, from the untraced section.
  Report e2e;
  std::vector<double> read_latency;
  for (const ReadRecord& r : untraced.reads) {
    read_latency.push_back(r.latency_ms);
  }
  std::vector<double> update_latency, writer_lag;
  const std::vector<UpdateRecord>& timed_updates =
      writer ? untraced.updates : probe;
  for (const UpdateRecord& u : timed_updates) {
    update_latency.push_back(u.latency_ms());
    writer_lag.push_back(u.lag_ms());
  }
  e2e.Add("setup_s", Median(setup_s), "s");
  e2e.Add("qps", untraced.qps(), "1/s");
  e2e.Add("query_p50_ms", Percentile(read_latency, 0.50), "ms");
  e2e.Add("query_p99_ms", Percentile(read_latency, 0.99), "ms");
  e2e.Add("update_p50_ms", Percentile(update_latency, 0.50), "ms");
  e2e.Add("update_p90_ms", Percentile(update_latency, 0.90), "ms");
  e2e.Add("peak_rss_mb", peak_rss_mb, "MB");

  Report extra;  // Context for the end-to-end numbers, not bounded.
  extra.Add("error_rate", Ratio(failed, attempted), "ratio");
  extra.Add("query_samples", static_cast<double>(read_latency.size()),
            "count");
  extra.Add("update_samples", static_cast<double>(update_latency.size()),
            "count");
  extra.Add("data_triples", static_cast<double>(data_triples), "count");
  extra.Add("answers_checked", static_cast<double>(oracle.checked), "count");
  extra.Add("answer_mismatches", static_cast<double>(oracle.mismatches),
            "count");
  extra.Add("read_failures", static_cast<double>(read_failures), "count");
  extra.Add("update_failures", static_cast<double>(update_failures), "count");

  if (writer) {
    extra.Add("bench.writer_lag_ms", Percentile(writer_lag, 0.50), "ms");
    extra.Add("bench.writer_lag_max_ms", Percentile(writer_lag, 1.0), "ms");
  }

  // Per-layer metrics, from the traced section. `layers` holds the ones
  // every workload reports; `layer_context` the bases of their ratios and
  // the read-write-only ones.
  Report layers, layer_context;
  if (args.trace) {
    AddLayerMetrics({&traced, untraced.qps(), &warmup_misses,
                     warmup_covers_examined, view_bytes,
                     writer ? &traced.updates : &probe, writer,
                     ReplayLayers(base_data, graph, streams.updates)},
                    &layers, &layer_context);
  }

  std::printf("workload %s seed %llu: %zu data triples, %zu reads, %zu "
              "updates, %zu answers checked, %zu mismatches\n",
              w.name.c_str(), static_cast<unsigned long long>(args.seed),
              data_triples, all_reads.size() + read_failures,
              all_updates.size(), oracle.checked, oracle.mismatches);
  for (const Report* r : {&e2e, &extra, &layers, &layer_context}) {
    for (const Metric& m : r->metrics()) {
      std::printf("  %-40s %14.4f %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }

  {
    std::map<std::string, std::vector<double>> by_label;
    for (const ReadRecord& r : untraced.reads) {
      by_label[streams.reads[r.entry].label].push_back(r.latency_ms);
    }
    for (const auto& [label, lat] : by_label) {
      std::printf("  latency %-8s n=%-6zu p50 %10.3f ms  p99 %10.3f ms\n",
                  label.c_str(), lat.size(), Percentile(lat, 0.5),
                  Percentile(lat, 0.99));
    }
  }

  // Detail line: provenance, configuration and everything measured.
  {
    JsonWriter json;
    json.BeginObject();
    json.Key("provenance").BeginObject();
    json.Key("workload").Value(w.name);
    json.Key("seed").Value(uint64_t{args.seed});
    json.Key("seconds");
    Number(&json, args.seconds);
    json.Key("trace").Value(args.trace);
    json.Key("nproc").Value(
        uint64_t{std::max(1u, std::thread::hardware_concurrency())});
    json.Key("client_threads").Value(uint64_t{ClientThreads()});
    json.Key("build_type").Value(PERFBENCH_BUILD_TYPE);
    json.Key("compiler").Value(PERFBENCH_COMPILER);
    json.Key("git_sha").Value(args.git_sha);
    json.Key("source_sha256").Value(args.source_sha);
    json.Key("universities").Value(uint64_t{w.lubm.num_universities});
    json.Key("fine_grained_specializations")
        .Value(uint64_t{w.lubm.fine_grained_specializations});
    json.Key("data_triples").Value(uint64_t{data_triples});
    json.Key("schema_triples").Value(uint64_t{graph.num_schema_triples()});
    json.Key("stream_requests").Value(uint64_t{streams.reads.size()});
    json.Key("update_batches").Value(uint64_t{streams.updates.size()});
    json.EndObject();
    json.Key("profile");
    WriteProfile(&json, profile);
    json.Key("service_options");
    WriteServiceOptions(&json, service_options);
    json.Key("end_to_end");
    WriteMetrics(&json, e2e.metrics());
    json.Key("context");
    WriteMetrics(&json, extra.metrics());
    json.Key("per_layer");
    WriteMetrics(&json, layers.metrics());
    json.Key("layer_context");
    WriteMetrics(&json, layer_context.metrics());
    json.EndObject();
    std::printf("%s\n", json.str().c_str());
  }
  {
    JsonWriter json;
    json.BeginObject();
    json.Key("correct").Value(failed == 0);
    json.Key("attempted").Value(uint64_t{attempted});
    json.Key("failed").Value(uint64_t{failed});
    json.Key("metrics");
    WriteMetrics(&json, args.trace ? layers.metrics() : e2e.metrics());
    json.EndObject();
    std::printf("%s\n", json.str().c_str());
  }
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace rdfopt::perfbench

int main(int argc, char** argv) {
  return rdfopt::perfbench::Main(argc, argv);
}
