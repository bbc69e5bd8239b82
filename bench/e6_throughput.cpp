/// \file e6_throughput.cpp
/// \brief Experiment E6 — request-processing throughput harness.
///
/// Adoption-grade numbers: nanoseconds per request across tenant counts,
/// cache sizes and cost families, on Zipf-skewed multi-tenant streams. The
/// point of the global cross-tenant eviction index is that ALG-DISCRETE's
/// per-request work is O(log k) *independent of the number of tenants*:
/// the `convex` rows stay flat as tenants grow.
///
/// Every run is also written as machine-readable JSON (default
/// `BENCH_throughput.json`) so CI can track the perf trajectory:
///
///   e6_throughput --tenants 16,256,4096,65536
///                 --policies convex,lru --json out.json
///
/// The literal Fig. 3 baseline (`convex-naive`, O(k) per eviction) is
/// auto-skipped above `--max-naive-tenants` and the skip is recorded in the
/// JSON.
///
/// Two pseudo-policies route the trace through a ShardedCache instead of a
/// bare SimulatorSession, measuring the frontend's hit paths under
/// identical decisions: `sharded-locked` (every request takes the shard
/// mutex) and `sharded-seqlock` (fresh hits bypass it via the optimistic
/// flat-table probe). Each sharded cell is one point of a `--shards` ×
/// `--threads` sweep (both default to 1), replayed by the same
/// ParallelReplayer that drives the sharded layers elsewhere and timed
/// around its parallel section — the seqlock path deliberately does no
/// per-request bookkeeping. Sharded rows also carry Experiment E10's
/// partitioning cost: Σ_i f_i(misses_i) of the sharded run divided by the
/// same objective for one unsharded ALG-DISCRETE replay of the identical
/// trace (exactly 1 at one shard), and the speed-up over the sweep's first
/// cell. After the sweep the harness *asserts* that every locked/seqlock
/// cell pair produced identical books: the optimistic path must buy speed,
/// never different decisions.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <new>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/convex_caching.hpp"
#include "cost/spec.hpp"
#include "exp/policy_factory.hpp"
#include "shard/parallel_replay.hpp"
#include "shard/sharded_cache.hpp"
#include "sim/simulator.hpp"
#include "trace/generators.hpp"
#include "util/cli.hpp"
#include "util/string_util.hpp"
#include "util/table.hpp"

#include "audit/audit.hpp"
#include "obs/observer.hpp"
#include "obs/registry.hpp"
#include "obs/trace_event.hpp"

// ----------------------------------------------------------------------
// Counting operator new/delete replacements (whole-binary, this TU only
// links into e6). The --alloc-stats probe snapshots the counter around a
// steady-state replay to assert the eviction path performs zero heap
// allocations per request once the arena-backed index has plateaued. The
// relaxed increment costs ~1ns per *allocation* — and the claim under
// test is precisely that steady-state cells allocate nothing, so the
// hook cannot skew the throughput numbers it rides along with.
// ----------------------------------------------------------------------

namespace {
std::atomic<std::uint64_t> g_new_calls{0};

void* counted_alloc(std::size_t size) {
  g_new_calls.fetch_add(1, std::memory_order_relaxed);
  if (size == 0) size = 1;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t size, std::size_t align) {
  g_new_calls.fetch_add(1, std::memory_order_relaxed);
  if (size == 0) size = 1;
  // aligned_alloc requires size to be a multiple of the alignment.
  size = (size + align - 1) / align * align;
  if (void* p = std::aligned_alloc(align, size)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, static_cast<std::size_t>(align));
}
// Deletes must pair with the malloc-family allocators above (the default
// ones are not guaranteed to be free()-compatible).
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace ccc {
namespace {

std::uint64_t heap_alloc_count() {
  return g_new_calls.load(std::memory_order_relaxed);
}

struct BenchRow {
  std::string policy;
  std::string cost_family;
  std::uint32_t tenants = 0;
  std::size_t capacity = 0;
  bool skipped = false;
  std::string skip_reason;
  bool audited = false;       // run with the audit shadow checks on
  PerfCounters perf;          // best (min wall-clock) repeat
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  // Sharded cells only (shards == 0 marks an unsharded row).
  std::size_t shards = 0;
  std::size_t threads = 0;
  double miss_cost = 0.0;      // Σ_i f_i(misses_i)
  double shard_seconds = 0.0;  // Σ access_batch call time (all threads)
  double speedup = 0.0;        // vs the sweep's first (shards, threads) cell
  double cost_ratio = 0.0;     // miss_cost / unsharded miss_cost
  // --alloc-stats probe rows only (no requests_per_second, so the CI
  // regression gate skips them automatically).
  bool alloc_probe = false;
  std::uint64_t steady_allocs = 0;     // operator new calls, measured half
  std::uint64_t steady_evictions = 0;  // evictions in the measured half
  std::uint64_t steady_requests = 0;   // requests in the measured half
};

constexpr std::string_view kShardedPrefix = "sharded-";

[[nodiscard]] bool is_sharded_policy(const std::string& name) {
  return name.starts_with(kShardedPrefix);
}

void write_json(const std::string& path, const Cli& cli,
                const std::vector<BenchRow>& rows) {
  std::ostringstream os;
  os << "{\n";
  os << "  \"benchmark\": \"e6_throughput\",\n";
  os << "  \"schema_version\": 1,\n";
  os << "  \"config\": {\n";
  os << "    \"requests\": " << cli.get_u64("requests") << ",\n";
  os << "    \"pages_per_tenant\": " << cli.get_u64("pages-per-tenant")
     << ",\n";
  os << "    \"k_per_tenant\": " << cli.get_u64("k-per-tenant") << ",\n";
  os << "    \"skew\": " << cli.get_double("skew") << ",\n";
  os << "    \"seed\": " << cli.get_u64("seed") << ",\n";
  os << "    \"repeats\": " << cli.get_u64("repeats") << ",\n";
  os << "    \"sharded_batch\": " << cli.get_u64("sharded-batch") << ",\n";
  os << "    \"shards\": \"" << json_escape(cli.get("shards")) << "\",\n";
  os << "    \"threads\": \"" << json_escape(cli.get("threads")) << "\",\n";
  os << "    \"tenants\": \"" << json_escape(cli.get("tenants")) << "\",\n";
  os << "    \"policies\": \"" << json_escape(cli.get("policies")) << "\",\n";
  os << "    \"costs\": \"" << json_escape(cli.get("costs")) << "\"\n";
  os << "  },\n";
  os << "  \"results\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const BenchRow& r = rows[i];
    os << "    {\"policy\": \"" << json_escape(r.policy) << "\", \"cost\": \""
       << json_escape(r.cost_family) << "\", \"tenants\": " << r.tenants;
    if (r.shards > 0)
      os << ", \"shards\": " << r.shards << ", \"threads\": " << r.threads;
    os << ", \"capacity\": " << r.capacity
       << ", \"audit\": " << (r.audited ? "true" : "false");
    if (r.skipped) {
      os << ", \"skipped\": true, \"reason\": \"" << json_escape(r.skip_reason)
         << "\"}";
    } else if (r.alloc_probe) {
      // Deliberately no requests_per_second: probe rows measure heap
      // traffic, not throughput, and must stay out of the perf gate.
      os << ", \"skipped\": false, \"alloc_probe\": true"
         << ", \"steady_state_allocs\": " << r.steady_allocs
         << ", \"evictions_measured\": " << r.steady_evictions
         << ", \"requests_measured\": " << r.steady_requests << "}";
    } else {
      os << ", \"skipped\": false"
         << ", \"requests\": " << r.perf.requests
         << ", \"wall_seconds\": " << r.perf.wall_seconds
         << ", \"ns_per_request\": " << r.perf.ns_per_request()
         << ", \"requests_per_second\": "
         << (r.perf.wall_seconds > 0.0
                 ? static_cast<double>(r.perf.requests) / r.perf.wall_seconds
                 : 0.0)
         << ", \"hits\": " << r.hits << ", \"misses\": " << r.misses
         << ", \"evictions\": " << r.perf.evictions
         << ", \"heap_pops\": " << r.perf.heap_pops
         << ", \"stale_skips\": " << r.perf.stale_skips
         << ", \"index_rebuilds\": " << r.perf.index_rebuilds
         << ", \"lockfree_hits\": " << r.perf.lockfree_hits;
      if (r.shards > 0)
        os << ", \"miss_cost\": " << r.miss_cost
           << ", \"shard_seconds\": " << r.shard_seconds
           << ", \"speedup_vs_1shard\": " << r.speedup
           << ", \"cost_ratio_vs_unsharded\": " << r.cost_ratio;
      os << "}";
    }
    os << (i + 1 < rows.size() ? ",\n" : "\n");
  }
  os << "  ]\n}\n";
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  out << os.str();
  std::cout << "wrote " << path << "\n";
}

/// Derives the obs snapshot path from the bench JSON path: `foo.json` →
/// `foo.obs.json` / `foo.obs.prom`; a non-.json path just gets the suffix
/// appended.
std::string obs_path(const std::string& json_path, const char* suffix) {
  const std::string base =
      json_path.size() > 5 && json_path.ends_with(".json")
          ? json_path.substr(0, json_path.size() - 5)
          : json_path;
  return base + suffix;
}

void write_obs_outputs(const obs::MetricsRegistry& registry,
                       const std::string& json_path) {
  const std::string obs_json = obs_path(json_path, ".obs.json");
  std::ofstream json_out(obs_json);
  if (!json_out) throw std::runtime_error("cannot write " + obs_json);
  registry.write_json(json_out);
  std::cout << "wrote " << obs_json << "\n";

  const std::string obs_prom = obs_path(json_path, ".obs.prom");
  std::ofstream prom_out(obs_prom);
  if (!prom_out) throw std::runtime_error("cannot write " + obs_prom);
  registry.write_prometheus(prom_out);
  std::cout << "wrote " << obs_prom << "\n";
}

/// Measures one cell: `repeats` runs of `policy_name` over `trace`, keeping
/// the min-wall-clock repeat. With `audit` true the runs carry a
/// ConvexCachingAuditor (cadence `audit_cadence`); any reported violation
/// aborts the benchmark — an audited number from a broken run is worthless.
/// `observer`, when non-null, is attached to every repeat.
void measure(BenchRow& row, const Trace& trace, std::size_t capacity,
             const std::vector<CostFunctionPtr>& costs,
             const std::string& policy_name, std::uint64_t repeats,
             bool audit, std::uint64_t audit_cadence,
             StepObserver* observer) {
  const auto policy = make_policy(policy_name);
  SimOptions options;
  options.step_observer = observer;
  AuditConfig audit_config;
  audit_config.step_cadence = audit_cadence;
  audit_config.eviction_cadence = audit_cadence;
  ConvexCachingAuditor auditor(audit_config);
  if (audit) options.auditor = &auditor;
  row.audited = audit;
  bool first = true;
  for (std::uint64_t r = 0; r < repeats; ++r) {
    const SimResult result = run_trace(trace, capacity, *policy, &costs,
                                       options);
    if (audit && !auditor.report().ok())
      throw std::runtime_error("audit violations in benchmarked run: " +
                               auditor.report().summary());
    if (first || result.perf.wall_seconds < row.perf.wall_seconds) {
      row.perf = result.perf;
      row.hits = result.metrics.total_hits();
      row.misses = result.metrics.total_misses();
      first = false;
    }
  }
}

/// Measures one sharded-frontend cell: `repeats` fresh ShardedCaches built
/// from `options`, each replayed by a `threads`-worker ParallelReplayer
/// that feeds every shard's stream to access_batch() in `batch`-request
/// submissions (1 = one request per call), keeping the min-wall-clock
/// repeat. Batch submission is the frontend's intended steady-state
/// interface: it amortises the shard lock and the clock reads over each
/// call, engages the probe-ahead prefetch, and under kSeqlock lets the
/// optimistic runs of every batch bypass the lock. The wall-clock is the
/// replayer's, taken around its parallel section; the frontend's own
/// figure, the summed time of its access_batch calls across all worker
/// threads, is reported as shard_seconds (over threads × wall-clock it is
/// the replay's parallel efficiency). Returns the
/// last repeat's cache for the observability snapshot.
std::unique_ptr<ShardedCache> measure_sharded(
    BenchRow& row, const Trace& trace,
    const std::vector<CostFunctionPtr>& costs,
    const ShardedCacheOptions& options, std::size_t threads,
    std::size_t batch, std::uint64_t repeats) {
  ParallelReplayer replayer({threads, batch});
  std::unique_ptr<ShardedCache> cache;
  for (std::uint64_t r = 0; r < repeats; ++r) {
    cache = std::make_unique<ShardedCache>(options, nullptr, &costs);
    const ParallelReplayResult result = replayer.replay(trace, *cache);
    if (r == 0 || result.perf.wall_seconds < row.perf.wall_seconds) {
      row.perf = result.perf;
      row.hits = result.metrics.total_hits();
      row.misses = result.metrics.total_misses();
      row.miss_cost = result.miss_cost;
      row.shard_seconds = result.shard_seconds;
    }
  }
  return cache;
}

/// The --alloc-stats probe: replays the first half of the trace through
/// one ALG-DISCRETE session (warm-up — the residency map reaches its
/// final size and the arena behind the eviction index plateaus), then
/// counts operator new calls over the second half. With the bump-pointer
/// arena backing the lazy index's heap storage, a steady-state eviction
/// performs zero heap allocations; in Release builds a nonzero count
/// fails the benchmark (the CI allocation gate).
BenchRow run_alloc_probe(const Trace& trace, std::size_t capacity,
                         const std::vector<CostFunctionPtr>& costs,
                         const std::string& family, std::uint32_t tenants) {
  BenchRow row;
  row.policy = "convex-alloc-probe";
  row.cost_family = family;
  row.tenants = tenants;
  row.capacity = capacity;
  row.alloc_probe = true;

  ConvexCachingPolicy policy;
  SimulatorSession session(capacity, tenants, policy, &costs);
  const std::span<const Request> requests(trace.requests());
  const std::size_t half = requests.size() / 2;
  for (std::size_t i = 0; i < half; ++i) (void)session.step(requests[i]);

  const std::uint64_t allocs_before = heap_alloc_count();
  const std::uint64_t evictions_before = session.perf_counters().evictions;
  for (std::size_t i = half; i < requests.size(); ++i)
    (void)session.step(requests[i]);
  row.steady_allocs = heap_alloc_count() - allocs_before;
  row.steady_evictions =
      session.perf_counters().evictions - evictions_before;
  row.steady_requests = requests.size() - half;

  std::cout << "alloc-probe n=" << tenants << " cost=" << family << ": "
            << row.steady_allocs << " heap allocations over "
            << row.steady_requests << " steady-state requests ("
            << row.steady_evictions << " evictions)\n";
  return row;
}

/// The sharded cells' zero-drift gate: every (cost, tenants, shards,
/// threads) point measured on both hit paths must have produced identical
/// books. A divergence means the optimistic path served a stale hit — a
/// correctness bug, so the benchmark aborts rather than publish numbers
/// from a broken run.
void check_hit_path_equivalence(const std::vector<BenchRow>& rows) {
  for (const BenchRow& locked : rows) {
    if (locked.policy != "sharded-locked" || locked.skipped) continue;
    for (const BenchRow& seqlock : rows) {
      if (seqlock.policy != "sharded-seqlock" || seqlock.skipped) continue;
      if (seqlock.cost_family != locked.cost_family ||
          seqlock.tenants != locked.tenants ||
          seqlock.shards != locked.shards ||
          seqlock.threads != locked.threads)
        continue;
      const std::string point =
          "cost=" + locked.cost_family +
          " n=" + std::to_string(locked.tenants) +
          " shards=" + std::to_string(locked.shards) +
          " threads=" + std::to_string(locked.threads);
      if (locked.hits != seqlock.hits || locked.misses != seqlock.misses ||
          locked.perf.evictions != seqlock.perf.evictions ||
          locked.miss_cost != seqlock.miss_cost)
        throw std::runtime_error(
            "hit-path divergence at " + point + ": locked " +
            std::to_string(locked.hits) + "/" +
            std::to_string(locked.misses) + "/" +
            std::to_string(locked.perf.evictions) + "/" +
            std::to_string(locked.miss_cost) + " vs seqlock " +
            std::to_string(seqlock.hits) + "/" +
            std::to_string(seqlock.misses) + "/" +
            std::to_string(seqlock.perf.evictions) + "/" +
            std::to_string(seqlock.miss_cost) +
            " (hits/misses/evictions/miss cost)");
      std::cout << "hit-path equivalence OK: " << point
                << " (cost ratio 1.00)\n";
    }
  }
}

int run(int argc, const char* const* argv) {
  Cli cli(
      "E6 — request throughput of online policies across tenant counts, "
      "cache sizes and cost families; emits JSON for CI perf tracking");
  cli.flag("tenants", "16,256,4096,65536",
           "comma-separated tenant counts to sweep")
      .flag("policies", "convex,lru",
            "comma-separated policy names (see policy_factory); "
            "sharded-locked / sharded-seqlock route through a ShardedCache "
            "on the corresponding hit path")
      .flag("costs", "mono2", "cost families: mono2,mono3,linear,sla")
      .flag("requests", "1000000", "requests per measured run")
      .flag("pages-per-tenant", "16", "page universe per tenant")
      .flag("k-per-tenant", "8", "cache capacity = k-per-tenant × tenants")
      .flag("skew", "0.9", "Zipf skew of every tenant's stream")
      .flag("repeats", "1", "measured repeats per cell (min wall-clock wins)")
      .flag("seed", "1234", "trace generator seed")
      .flag("max-naive-tenants", "64",
            "skip convex-naive above this tenant count")
      .flag("audit", "0",
            "1 = add an audited twin row per convex cell; measures the "
            "audit overhead")
      .flag("audit-cadence", "64",
            "audited rows: run the shadow checks every Nth request/eviction")
      .flag("obs", "0",
            "1 = attach a SimObserver to every measured cell and dump "
            "latency/eviction histograms plus all counters next to the "
            "bench JSON (see --obs-cadence)")
      .flag("sharded-batch", "256",
            "sharded cells: requests per access_batch() submission "
            "(1 = one request per call)")
      .flag("shards", "1", "sharded cells: comma-separated shard counts")
      .flag("threads", "1",
            "sharded cells: comma-separated replay worker thread counts")
      .flag("obs-cadence", "8",
            "observed rows: time every Nth step (1 = every step; higher "
            "values shrink the observation overhead)")
      .flag("alloc-stats", "0",
            "1 = add one allocation-probe row per (cost, tenants) cell: "
            "warm a convex session on the first half of the trace, count "
            "operator new calls over the second half; Release builds fail "
            "on a nonzero steady-state count (the CI allocation gate)")
      .flag("expect-lockfree-frac", "0",
            "fail unless every sharded-seqlock cell served at least this "
            "fraction of its requests lock-free (0 = no check); the CI "
            "eviction-pressure cell uses this to pin the per-tenant-epoch "
            "freshness win")
      .flag("json", "BENCH_throughput.json",
            "output JSON path (empty = no JSON)");
  if (!cli.parse(argc, argv)) return 0;

  const auto tenant_counts = cli.get_u64_list("tenants");
  const auto policies = split(cli.get("policies"), ',');
  const auto shard_counts = cli.get_u64_list("shards");
  const auto thread_counts = cli.get_u64_list("threads");
  const auto sharded_batch = static_cast<std::size_t>(
      std::max<std::uint64_t>(1, cli.get_u64("sharded-batch")));
  const bool any_sharded =
      std::any_of(policies.begin(), policies.end(), is_sharded_policy);
  const auto families = split(cli.get("costs"), ',');
  const auto requests = static_cast<std::size_t>(cli.get_u64("requests"));
  const std::uint64_t pages_per_tenant = cli.get_u64("pages-per-tenant");
  const std::uint64_t k_per_tenant = cli.get_u64("k-per-tenant");
  const double skew = cli.get_double("skew");
  const std::uint64_t repeats = std::max<std::uint64_t>(1,
                                                        cli.get_u64("repeats"));
  const std::uint64_t max_naive = cli.get_u64("max-naive-tenants");
  const bool audit = cli.get_bool("audit");
  const std::uint64_t audit_cadence =
      std::max<std::uint64_t>(1, cli.get_u64("audit-cadence"));
  const bool observe = cli.get_bool("obs");
  const std::uint64_t obs_cadence =
      std::max<std::uint64_t>(1, cli.get_u64("obs-cadence"));
  // Optional Chrome trace spans (CCC_OBS_TRACE=path), shared by all cells.
  const std::unique_ptr<obs::TraceEventWriter> trace_writer =
      observe ? obs::TraceEventWriter::from_env() : nullptr;
  obs::MetricsRegistry obs_registry;

  std::vector<BenchRow> rows;
  Table table({"policy", "cost", "tenants", "capacity", "ns/req", "Mreq/s",
               "hit%", "stale/evict"});

  const auto make_observer = [&]() -> std::unique_ptr<obs::SimObserver> {
    if (!observe) return nullptr;
    obs::SimObserverOptions observer_options;
    observer_options.latency_sample_period = obs_cadence;
    observer_options.trace = trace_writer.get();
    return std::make_unique<obs::SimObserver>(observer_options);
  };
  const auto report = [&table](const BenchRow& cell,
                               const std::string& label) {
    const std::uint64_t accesses = cell.hits + cell.misses;
    const double hit_pct =
        accesses == 0 ? 0.0
                      : 100.0 * static_cast<double>(cell.hits) /
                            static_cast<double>(accesses);
    table.add(label, cell.cost_family, cell.tenants, cell.capacity,
              cell.perf.ns_per_request(),
              cell.perf.wall_seconds > 0.0
                  ? static_cast<double>(cell.perf.requests) /
                        (cell.perf.wall_seconds * 1e6)
                  : 0.0,
              hit_pct, cell.perf.stale_skips_per_eviction());
    std::cout << label << " n=" << cell.tenants
              << " cost=" << cell.cost_family << ": "
              << cell.perf.ns_per_request() << " ns/req";
    if (cell.shards > 0)
      std::cout << ", speedup " << format_double(cell.speedup, 2)
                << ", cost ratio " << format_double(cell.cost_ratio, 3);
    std::cout << "\n";
  };

  for (const std::uint64_t n64 : tenant_counts) {
    const auto tenants = static_cast<std::uint32_t>(n64);
    const std::size_t capacity =
        static_cast<std::size_t>(k_per_tenant) * tenants;
    const Trace trace = zipf_tenant_trace(tenants, pages_per_tenant, skew,
                                          requests, cli.get_u64("seed"));
    for (const std::string& family : families) {
      const auto costs = make_cost_family(family, tenants);
      if (cli.get_bool("alloc-stats"))
        rows.push_back(
            run_alloc_probe(trace, capacity, costs, family, tenants));
      // Unsharded reference: one ALG-DISCRETE over the whole cache — the
      // cost yardstick every sharded cell is divided by.
      double unsharded_cost = 0.0;
      if (any_sharded) {
        ConvexCachingPolicy unsharded;
        const SimResult reference =
            run_trace(trace, capacity, unsharded, &costs);
        unsharded_cost = total_cost(reference.metrics.miss_vector(), costs);
        std::cout << family << " n=" << tenants << " unsharded: cost "
                  << format_compact(unsharded_cost) << "\n";
      }
      for (const std::string& policy_name : policies) {
        BenchRow row;
        row.policy = policy_name;
        row.cost_family = family;
        row.tenants = tenants;
        row.capacity = capacity;

        if (policy_name == "convex-naive" && n64 > max_naive) {
          row.skipped = true;
          row.skip_reason = "tenants > max-naive-tenants";
          std::cout << policy_name << " n=" << tenants << " cost=" << family
                    << ": skipped (" << row.skip_reason << ")\n";
          rows.push_back(std::move(row));
          continue;
        }

        if (is_sharded_policy(policy_name)) {
          // One cell per (shards, threads) point. The speed-up base is the
          // sweep's first cell, latched exactly once: re-latching whenever
          // the base timed at zero would make a later cell the baseline
          // and silently inflate every speed-up of the sweep.
          ShardedCacheOptions options;
          options.capacity = capacity;
          options.num_tenants = tenants;
          options.seed = cli.get_u64("seed");
          options.hit_path =
              parse_hit_path(std::string_view(policy_name)
                                 .substr(kShardedPrefix.size()));
          double base_wall = 0.0;
          bool have_base = false;
          for (const std::uint64_t shards : shard_counts) {
            for (const std::uint64_t threads : thread_counts) {
              BenchRow cell = row;
              cell.shards = static_cast<std::size_t>(shards);
              cell.threads = static_cast<std::size_t>(threads);
              const std::unique_ptr<obs::SimObserver> observer =
                  make_observer();
              options.num_shards = cell.shards;
              options.step_observer = observer.get();
              const std::unique_ptr<ShardedCache> cache =
                  measure_sharded(cell, trace, costs, options, cell.threads,
                                  sharded_batch, repeats);
              if (!have_base) {
                base_wall = cell.perf.wall_seconds;
                have_base = true;
                if (base_wall <= 0.0)
                  std::cerr << "warning: " << policy_name << " n=" << tenants
                            << " cost=" << family
                            << " base cell reported zero wall_seconds; "
                               "speedups for this sweep are unreliable\n";
              }
              cell.speedup = cell.perf.wall_seconds > 0.0 && base_wall > 0.0
                                 ? base_wall / cell.perf.wall_seconds
                                 : 0.0;
              cell.cost_ratio = unsharded_cost > 0.0
                                    ? cell.miss_cost / unsharded_cost
                                    : 0.0;
              // One shard is the unsharded algorithm: anything but the
              // identical objective is a frontend bug, not a measurement.
              if (cell.shards == 1 && cell.miss_cost != unsharded_cost)
                throw std::runtime_error(
                    policy_name + " 1-shard cell n=" +
                    std::to_string(tenants) + " cost=" + family +
                    " diverged from the unsharded replay: miss cost " +
                    std::to_string(cell.miss_cost) + " vs " +
                    std::to_string(unsharded_cost));
              if (observer != nullptr) {
                const obs::LabelSet labels{
                    {"policy", policy_name},
                    {"cost", family},
                    {"tenants", std::to_string(tenants)},
                    {"shards", std::to_string(cell.shards)},
                    {"threads", std::to_string(cell.threads)}};
                observer->fill(obs_registry, labels);
                obs::snapshot_perf(obs_registry, cell.perf, labels);
                obs::snapshot_sharded(obs_registry, *cache, labels);
              }
              report(cell, policy_name + " S=" + std::to_string(cell.shards) +
                               " T=" + std::to_string(cell.threads));
              rows.push_back(std::move(cell));
            }
          }
          continue;
        }

        // Unaudited cell, plus — with --audit on the convex policy — an
        // audited twin, so the JSON carries overhead pairs.
        for (const bool audited : {false, true}) {
          if (audited && !(audit && policy_name == "convex")) continue;
          BenchRow cell = row;
          const std::unique_ptr<obs::SimObserver> observer = make_observer();
          measure(cell, trace, capacity, costs, policy_name, repeats,
                  audited, audit_cadence, observer.get());
          if (observer != nullptr && !audited) {
            const obs::LabelSet labels{{"policy", policy_name},
                                       {"cost", family},
                                       {"tenants", std::to_string(tenants)}};
            observer->fill(obs_registry, labels);
            obs::snapshot_perf(obs_registry, cell.perf, labels);
          }
          report(cell, policy_name + (audited ? "+audit" : ""));
          rows.push_back(std::move(cell));
        }
      }
    }
  }

  std::cout << "\n" << table.to_ascii() << "\n";
  check_hit_path_equivalence(rows);
  const std::string json_path = cli.get("json");
  if (!json_path.empty()) write_json(json_path, cli, rows);
  if (observe && !json_path.empty()) write_obs_outputs(obs_registry, json_path);

  // CI assertions last, after the JSON landed (a failing gate should
  // still leave the numbers on disk for diagnosis).
  const double expect_lockfree = cli.get_double("expect-lockfree-frac");
  if (expect_lockfree > 0.0) {
    bool any = false;
    for (const BenchRow& row : rows) {
      if (row.policy != "sharded-seqlock" || row.skipped) continue;
      any = true;
      const double frac =
          row.perf.requests == 0
              ? 0.0
              : static_cast<double>(row.perf.lockfree_hits) /
                    static_cast<double>(row.perf.requests);
      std::cout << "lockfree fraction n=" << row.tenants
                << " cost=" << row.cost_family << " shards=" << row.shards
                << " threads=" << row.threads << ": " << frac << "\n";
      if (frac < expect_lockfree)
        throw std::runtime_error(
            "sharded-seqlock cell cost=" + row.cost_family + " n=" +
            std::to_string(row.tenants) + " shards=" +
            std::to_string(row.shards) + " threads=" +
            std::to_string(row.threads) + " served only " +
            std::to_string(frac) + " of requests lock-free (< " +
            std::to_string(expect_lockfree) + ")");
    }
    if (!any)
      throw std::runtime_error(
          "--expect-lockfree-frac set but no sharded-seqlock cell ran");
  }
  if (cli.get_bool("alloc-stats")) {
    for (const BenchRow& row : rows) {
      if (!row.alloc_probe) continue;
#ifdef NDEBUG
      if (row.steady_allocs != 0)
        throw std::runtime_error(
            "allocation gate: cost=" + row.cost_family + " n=" +
            std::to_string(row.tenants) + " performed " +
            std::to_string(row.steady_allocs) +
            " heap allocations at steady state (expected 0)");
#endif
    }
  }
  return 0;
}

}  // namespace
}  // namespace ccc

int main(int argc, char** argv) {
  try {
    return ccc::run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "e6_throughput: " << e.what() << "\n";
    return 1;
  }
}
