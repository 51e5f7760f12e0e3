// Serving-layer benchmark: concurrent clients driving the QueryService
// front door (src/service). Sweeps client counts × distinct-query pool
// sizes (the pool size controls the cache hit rate) and reports throughput
// and latency percentiles per configuration, verifying along the way that
// every concurrent answer is identical to the serial reference — cache
// hits, misses and parallel clients must never change a row.

#include "bench_common.h"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <set>
#include <thread>

#include "service/query_service.h"

namespace rdfopt::bench {
namespace {

/// Order-insensitive fingerprint of a relation's rows; equal row sets (same
/// columns, any enumeration order) hash equal.
uint64_t HashRows(const Relation& r) {
  uint64_t hash = 0x9E3779B97F4A7C15ull * (r.arity() + 1);
  for (size_t i = 0; i < r.num_rows(); ++i) {
    uint64_t row_hash = 0xCBF29CE484222325ull;
    for (ValueId v : r.row(i)) {
      row_hash ^= v;
      row_hash *= 0x100000001B3ull;
    }
    hash += row_hash;  // Commutative combine: order-insensitive.
  }
  return hash;
}

struct LoadResult {
  size_t requests = 0;
  size_t errors = 0;
  size_t mismatches = 0;
  double wall_ms = 0.0;
  double qps = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  QueryService::Stats stats;
};

double Percentile(std::vector<double>* sorted_latencies, double q) {
  if (sorted_latencies->empty()) return 0.0;
  size_t index = static_cast<size_t>(q * (sorted_latencies->size() - 1));
  return (*sorted_latencies)[index];
}

/// One load configuration: `clients` threads, each issuing
/// `requests_per_client` queries round-robin over the first `distinct`
/// pool entries (offset by client id, so misses interleave). The service is
/// built per call; `warmup_passes` serial passes over the pool run before
/// the clock starts (0 = cache-cold, the classic sweep).
LoadResult RunLoadWithOptions(Graph* graph,
                              const std::vector<std::string>& pool,
                              const std::vector<uint64_t>& reference_hashes,
                              size_t clients, size_t distinct,
                              size_t requests_per_client,
                              const ServiceOptions& options,
                              size_t warmup_passes) {
  QueryService service(graph, WithBenchThreads(PostgresLikeProfile()),
                       options);
  for (size_t pass = 0; pass < warmup_passes; ++pass) {
    for (size_t qi = 0; qi < distinct; ++qi) {
      (void)service.AnswerText(pool[qi]);
    }
  }

  std::vector<double> latencies;
  latencies.reserve(clients * requests_per_client);
  std::mutex latencies_mu;
  std::atomic<size_t> errors{0};
  std::atomic<size_t> mismatches{0};

  Stopwatch wall;
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      std::vector<double> local;
      local.reserve(requests_per_client);
      for (size_t i = 0; i < requests_per_client; ++i) {
        const size_t qi = (c + i) % distinct;
        Stopwatch sw;
        Result<ServiceOutcome> r = service.AnswerText(pool[qi]);
        local.push_back(sw.ElapsedMillis());
        if (!r.ok()) {
          ++errors;
        } else if (HashRows(r.ValueOrDie().answers) != reference_hashes[qi]) {
          ++mismatches;
        }
      }
      std::lock_guard<std::mutex> lock(latencies_mu);
      latencies.insert(latencies.end(), local.begin(), local.end());
    });
  }
  for (std::thread& t : threads) t.join();

  LoadResult result;
  result.wall_ms = wall.ElapsedMillis();
  result.requests = clients * requests_per_client;
  result.errors = errors.load();
  result.mismatches = mismatches.load();
  result.qps = result.requests / (result.wall_ms / 1000.0);
  std::sort(latencies.begin(), latencies.end());
  result.p50_ms = Percentile(&latencies, 0.50);
  result.p95_ms = Percentile(&latencies, 0.95);
  result.p99_ms = Percentile(&latencies, 0.99);
  result.stats = service.stats();
  return result;
}

LoadResult RunLoad(Graph* graph, const std::vector<std::string>& pool,
                   const std::vector<uint64_t>& reference_hashes,
                   size_t clients, size_t distinct,
                   size_t requests_per_client) {
  ServiceOptions options;
  options.max_concurrent = clients;
  options.max_queue = 1024;
  options.default_deadline_ms = 600'000.0;
  options.answer.strategy = Strategy::kGcov;
  return RunLoadWithOptions(graph, pool, reference_hashes, clients, distinct,
                            requests_per_client, options,
                            /*warmup_passes=*/0);
}

std::string LoadRecord(size_t clients, size_t distinct,
                       const LoadResult& result) {
  JsonWriter json;
  json.BeginObject();
  json.Key("bench").Value("service");
  json.Key("clients").Value(uint64_t{clients});
  json.Key("distinct_queries").Value(uint64_t{distinct});
  json.Key("requests").Value(uint64_t{result.requests});
  json.Key("wall_ms").Value(result.wall_ms);
  json.Key("throughput_qps").Value(result.qps);
  json.Key("p50_ms").Value(result.p50_ms);
  json.Key("p95_ms").Value(result.p95_ms);
  json.Key("p99_ms").Value(result.p99_ms);
  json.Key("cache_hits").Value(result.stats.cache.hits);
  json.Key("cache_misses").Value(result.stats.cache.misses);
  const uint64_t lookups = result.stats.cache.hits + result.stats.cache.misses;
  json.Key("hit_rate").Value(
      lookups == 0 ? 0.0 : static_cast<double>(result.stats.cache.hits) /
                               static_cast<double>(lookups));
  json.Key("shed").Value(result.stats.admission.shed);
  json.Key("deadline_exceeded").Value(result.stats.admission.deadline_exceeded);
  json.Key("errors").Value(uint64_t{result.errors});
  json.Key("row_mismatches").Value(uint64_t{result.mismatches});
  json.Key("worker_threads").Value(uint64_t{BenchWorkerThreads()});
  json.EndObject();
  return json.TakeString();
}

std::string SharedRecord(size_t clients, size_t distinct, bool views,
                         const LoadResult& result) {
  JsonWriter json;
  json.BeginObject();
  json.Key("bench").Value("service_shared_fragments");
  json.Key("views").Value(views);
  json.Key("clients").Value(uint64_t{clients});
  json.Key("distinct_queries").Value(uint64_t{distinct});
  json.Key("requests").Value(uint64_t{result.requests});
  json.Key("wall_ms").Value(result.wall_ms);
  json.Key("throughput_qps").Value(result.qps);
  json.Key("p50_ms").Value(result.p50_ms);
  json.Key("p95_ms").Value(result.p95_ms);
  json.Key("p99_ms").Value(result.p99_ms);
  json.Key("view_hits").Value(result.stats.views.hits);
  json.Key("view_admitted").Value(result.stats.views.admitted);
  json.Key("view_bytes").Value(uint64_t{result.stats.views.bytes});
  json.Key("errors").Value(uint64_t{result.errors});
  json.Key("row_mismatches").Value(uint64_t{result.mismatches});
  json.Key("worker_threads").Value(uint64_t{BenchWorkerThreads()});
  json.EndObject();
  return json.TakeString();
}

/// Shared-fragment workload (DESIGN.md §14): many *distinct* queries that
/// all contain the same hot fragment — `?x rdf:type ub:Professor`, which
/// under fine-grained specializations reformulates into a ~250-term union
/// (the same width as bench_micro's HierEnv) — paired with a
/// per-department constant atom that makes every query different. The plan
/// cache cannot help across the pool (64+ distinct plans); the view
/// catalog can: under SCQ the type atom is its own component, so every
/// query's execution reads the one materialized union.
/// Both sides are warmed (plans cached, catalog populated) before the
/// clock starts, so the reported ratio is steady-state execution.
size_t RunSharedFragmentMode(size_t target, size_t requests_per_client) {
  Graph graph;
  LubmOptions lubm = LubmOptionsForTripleTarget(target);
  lubm.fine_grained_specializations = 240;
  // Two queries per department and >= 12 departments per university: three
  // universities guarantee the >= 64 distinct queries this mode is about.
  lubm.num_universities = std::max<size_t>(lubm.num_universities, 3);
  std::printf("\n== shared-fragment mode: target %zu triples "
              "(%zu universities, 240 specialty leaves)\n",
              target, lubm.num_universities);
  GenerateLubm(lubm, &graph);
  graph.FinalizeSchema();

  // Every department hosts professors; enumerate them from the data so the
  // discriminating constants are valid at any scale.
  const ValueId works_for =
      graph.dict().InternIri("http://lubm.example.org/univ#worksFor");
  std::vector<std::string> departments;
  {
    std::set<ValueId> seen;
    for (const Triple& t : graph.data_triples()) {
      if (t.p != works_for) continue;
      if (seen.insert(t.o).second) {
        departments.push_back(graph.dict().term(t.o).Encoded());
      }
    }
    std::sort(departments.begin(), departments.end());
  }
  const char* kPreamble = "PREFIX ub: <http://lubm.example.org/univ#> ";
  std::vector<std::string> pool;
  for (const std::string& dept : departments) {
    pool.push_back(std::string(kPreamble) +
                   "SELECT ?x WHERE { ?x rdf:type ub:Professor . "
                   "?x ub:worksFor " + dept + " . }");
    pool.push_back(std::string(kPreamble) +
                   "SELECT ?x WHERE { ?x rdf:type ub:Professor . "
                   "?x ub:headOf " + dept + " . }");
  }
  if (pool.size() < 64) {
    std::fprintf(stderr, "shared-fragment pool too small: %zu queries\n",
                 pool.size());
    return 1;
  }
  if (pool.size() > 128) pool.resize(128);
  std::printf("# %zu distinct queries over %zu departments, one shared hot "
              "fragment\n", pool.size(), departments.size());

  auto shared_options = [&](size_t clients, bool views) {
    ServiceOptions options;
    options.max_concurrent = clients;
    options.max_queue = 1024;
    options.default_deadline_ms = 600'000.0;
    // Singleton covers: each atom is its own component, so the hot type
    // atom is a shared fragment with one catalog-wide signature.
    options.answer.strategy = Strategy::kScq;
    options.enable_views = views;
    options.view_advisor_interval = 32;
    options.view_min_observations = 2;
    return options;
  };

  // Serial reference (views off): defines the row fingerprint every
  // measured answer — views on or off — is checked against.
  std::vector<uint64_t> reference_hashes;
  {
    QueryService reference(&graph, WithBenchThreads(PostgresLikeProfile()),
                           shared_options(1, false));
    for (const std::string& text : pool) {
      Result<ServiceOutcome> r = reference.AnswerText(text);
      if (!r.ok()) {
        std::fprintf(stderr, "shared-fragment reference failed: %s\n",
                     r.status().ToString().c_str());
        return 1;
      }
      reference_hashes.push_back(HashRows(r.ValueOrDie().answers));
    }
  }

  std::printf("%8s %7s %9s %10s %9s %9s %11s %6s\n", "clients", "views",
              "requests", "qps", "p50 ms", "p99 ms", "view hits", "err");
  size_t mismatches = 0;
  double qps_off = 0.0, qps_on = 0.0;
  for (size_t clients : {size_t{1}, size_t{8}}) {
    for (bool views : {false, true}) {
      LoadResult r = RunLoadWithOptions(
          &graph, pool, reference_hashes, clients, pool.size(),
          requests_per_client, shared_options(clients, views),
          /*warmup_passes=*/2);
      std::printf("%8zu %7s %9zu %10.1f %9.2f %9.2f %11llu %6zu\n", clients,
                  views ? "on" : "off", r.requests, r.qps, r.p50_ms, r.p99_ms,
                  static_cast<unsigned long long>(r.stats.views.hits),
                  r.errors + r.mismatches);
      if (BenchJsonWriter::Active() != nullptr) {
        BenchJsonWriter::Active()->Record(
            SharedRecord(clients, pool.size(), views, r));
      }
      mismatches += r.mismatches + r.errors;
      if (clients == 8) (views ? qps_on : qps_off) = r.qps;
    }
  }
  std::printf("# shared-fragment throughput, views on vs off (8 clients, "
              "%zu distinct queries): %.1fx\n",
              pool.size(), qps_off > 0 ? qps_on / qps_off : 0.0);
  return mismatches;
}

int Main(int argc, char** argv) {
  InitBenchThreads(&argc, argv);
  InitBenchJson(argc, argv);

  const size_t target =
      EnvSize("RDFOPT_SERVICE_TRIPLES",
              EnvSize("RDFOPT_LUBM_TRIPLES", 200'000));
  Graph graph;
  LubmOptions lubm = LubmOptionsForTripleTarget(target);
  std::printf("# generating LUBM-style data: target %zu triples "
              "(%zu universities)...\n",
              target, lubm.num_universities);
  GenerateLubm(lubm, &graph);
  graph.FinalizeSchema();

  // Query pool: the cheap end of the LUBM set (at most 3 atoms), so the
  // sweep measures serving overheads and cache effects rather than a few
  // giant reformulations.
  std::vector<std::string> pool;
  for (const BenchmarkQuery& bq : LubmQuerySet()) {
    Query q = ParseOrDie(bq.text, &graph.dict());
    if (q.cq.atoms.size() <= 3) pool.push_back(bq.text);
    if (pool.size() == 8) break;
  }
  std::printf("# query pool: %zu queries\n", pool.size());

  // Serial reference: one cold service, each query answered twice — the
  // second (cached) answer must match the first, and both define the row
  // fingerprint every concurrent answer is checked against.
  std::vector<uint64_t> reference_hashes;
  {
    ServiceOptions serial;
    serial.max_concurrent = 1;
    QueryService reference(&graph, WithBenchThreads(PostgresLikeProfile()),
                           serial);
    for (const std::string& text : pool) {
      Result<ServiceOutcome> miss = reference.AnswerText(text);
      if (!miss.ok()) {
        std::fprintf(stderr, "reference answering failed: %s\n",
                     miss.status().ToString().c_str());
        return 1;
      }
      Result<ServiceOutcome> hit = reference.AnswerText(text);
      if (!hit.ok() || !hit.ValueOrDie().cache_hit ||
          HashRows(hit.ValueOrDie().answers) !=
              HashRows(miss.ValueOrDie().answers)) {
        std::fprintf(stderr, "cached answer diverged from cold answer\n");
        return 1;
      }
      reference_hashes.push_back(HashRows(miss.ValueOrDie().answers));
    }
  }

  const size_t requests_per_client = EnvSize("RDFOPT_SERVICE_REQUESTS", 30);
  const size_t client_counts[] = {1, 2, 4, 8, 16};
  std::vector<size_t> pool_sizes = {1, 4};
  if (pool.size() >= 8) pool_sizes.push_back(8);

  std::printf("\n== service load sweep: %zu requests/client, GCov, "
              "Postgres-like engine\n",
              requests_per_client);
  std::printf("%8s %9s %9s %10s %9s %9s %9s %7s %6s\n", "clients", "distinct",
              "requests", "qps", "p50 ms", "p95 ms", "p99 ms", "hit%", "err");

  double serial_qps = 0.0, concurrent_qps = 0.0;
  size_t total_mismatches = 0;
  for (size_t distinct : pool_sizes) {
    for (size_t clients : client_counts) {
      LoadResult r = RunLoad(&graph, pool, reference_hashes, clients,
                             distinct, requests_per_client);
      const uint64_t lookups = r.stats.cache.hits + r.stats.cache.misses;
      std::printf("%8zu %9zu %9zu %10.1f %9.2f %9.2f %9.2f %6.1f%% %6zu\n",
                  clients, distinct, r.requests, r.qps, r.p50_ms, r.p95_ms,
                  r.p99_ms,
                  lookups == 0 ? 0.0 : 100.0 * r.stats.cache.hits / lookups,
                  r.errors + r.mismatches);
      if (BenchJsonWriter::Active() != nullptr) {
        BenchJsonWriter::Active()->Record(LoadRecord(clients, distinct, r));
      }
      total_mismatches += r.mismatches;
      if (distinct == pool_sizes.back()) {
        if (clients == 1) serial_qps = r.qps;
        if (clients == 8) concurrent_qps = r.qps;
      }
    }
  }

  std::printf("\n# 8-client vs serial throughput: %.1fx  (%s)\n",
              serial_qps > 0 ? concurrent_qps / serial_qps : 0.0,
              total_mismatches == 0 ? "all rows identical to serial reference"
                                    : "ROW MISMATCHES DETECTED");

  total_mismatches += RunSharedFragmentMode(target, requests_per_client);
  return total_mismatches == 0 ? 0 : 1;
}

}  // namespace
}  // namespace rdfopt::bench

int main(int argc, char** argv) { return rdfopt::bench::Main(argc, argv); }
