#pragma once
/// \file support.hpp
/// \brief Shared pieces of the perfbench harness: the workload table, trace
///        and cost construction, per-tenant books, exact-sample statistics,
///        the in-memory span log and the metric list printed as JSON.

#include <pthread.h>

#include <chrono>
#include <cstdint>
#include <ctime>
#include <iosfwd>
#include <string>
#include <vector>

#include "cost/cost_function.hpp"
#include "server/protocol.hpp"
#include "shard/sharded_cache.hpp"
#include "sim/metrics.hpp"
#include "trace/trace.hpp"

namespace perfbench {

using ccc::CostFunctionPtr;
using ccc::PageId;
using ccc::Request;
using ccc::TenantId;
using Clock = std::chrono::steady_clock;

[[nodiscard]] inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

[[nodiscard]] inline double seconds_between(std::uint64_t start_ns,
                                            std::uint64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) * 1e-9;
}

/// Reading of a CPU clock (CLOCK_THREAD_CPUTIME_ID, CLOCK_PROCESS_CPUTIME_ID
/// or pthread_getcpuclockid's), seconds. A CPU clock advances only while its
/// thread runs: time spent waiting for a CPU — behind another process, or
/// while the hypervisor runs another guest on the vCPU (steal time) — does
/// not count, so a busy host moves it far less than it moves wall time.
[[nodiscard]] inline double cpu_seconds(clockid_t clock) {
  timespec now{};
  clock_gettime(clock, &now);
  return static_cast<double>(now.tv_sec) +
         static_cast<double>(now.tv_nsec) * 1e-9;
}

/// Settings every workload shares: the ccc-serverd defaults (4 shards,
/// seqlock hit path, metrics listener on) and the closed-loop client shape.
inline constexpr std::size_t kShards = 4;
inline constexpr std::size_t kConnections = 2;
inline constexpr std::size_t kWindow = 64;
/// Requests per access_batch call in direct replays and ladder rungs 1–4
/// (ParallelReplayer's default).
inline constexpr std::size_t kBatch = 1024;

/// One benchmark workload: a multi-tenant Zipf trace and a cache size.
struct Workload {
  std::string name;
  std::uint32_t tenants = 0;
  std::uint64_t pages_per_tenant = 0;
  std::uint64_t k_per_tenant = 0;
  double skew = 0.0;
  std::string costs;              ///< cost family: mono2 | linear
  std::size_t warmup = 0;         ///< requests replayed before timing
  std::size_t measured = 0;       ///< scored requests after the warm-up
  std::size_t round = 0;          ///< requests per timed loopback round

  [[nodiscard]] std::size_t capacity() const {
    return static_cast<std::size_t>(k_per_tenant) * tenants;
  }
};

/// The workload named `name`; throws std::invalid_argument listing the
/// valid names otherwise.
[[nodiscard]] const Workload& find_workload(const std::string& name);
[[nodiscard]] std::vector<std::string> workload_names();

/// A ShardedCache configuration for `workload`. The defaults give the
/// server's cache: kShards shards, seqlock hit path, the whole capacity.
[[nodiscard]] ccc::ShardedCacheOptions cache_options(
    const Workload& workload, std::uint64_t seed, std::size_t capacity = 0,
    std::size_t shards = kShards,
    ccc::HitPath hit_path = ccc::HitPath::kSeqlock);

/// Warm-up + measured requests, generated from `seed` alone.
[[nodiscard]] ccc::Trace make_trace(const Workload& workload,
                                    std::uint64_t seed);
/// Tenant i pays w_i·f(x) with w_i = 1 + (i mod 4) and f from the family.
[[nodiscard]] std::vector<CostFunctionPtr> make_costs(const Workload& workload);

/// Per-tenant hits, misses and evictions: what every layer must agree on.
struct Books {
  std::vector<std::uint64_t> hits;
  std::vector<std::uint64_t> misses;
  std::vector<std::uint64_t> evictions;

  static Books of(const ccc::Metrics& metrics);
  static Books of(const ccc::server::StatsPayload& stats);
  /// `post − pre`, element-wise.
  static Books delta(const Books& pre, const Books& post);
  friend bool operator==(const Books&, const Books&) = default;

  [[nodiscard]] std::uint64_t total_hits() const;
  [[nodiscard]] std::uint64_t total_misses() const;
  [[nodiscard]] std::uint64_t total_evictions() const;
};

/// Exact percentile of `samples` (nearest-rank on a sorted copy) with the
/// number of samples strictly above it.
struct Percentile {
  double value = 0.0;
  std::uint64_t count = 0;  ///< samples the percentile was taken over
  std::uint64_t above = 0;  ///< samples strictly greater than `value`
};
[[nodiscard]] std::vector<Percentile> exact_percentiles(
    std::vector<std::uint32_t> samples, const std::vector<double>& qs);

[[nodiscard]] double median(std::vector<double> values);
/// The q-quantile of `values`, 0 <= q <= 1, interpolated linearly between
/// neighbouring order statistics; 0 when `values` is empty.
[[nodiscard]] double quantile(std::vector<double> values, double q);

/// One finished span. Spans form a tree through `parent` (0 = root); the
/// ids are unique within a SpanLog.
struct Span {
  const char* name = "";
  const char* layer = "";  ///< src/ module the span times, or "bench"
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint32_t tid = 0;
};

/// Append-only in-memory span store for one thread. Spans beyond
/// `capacity` are counted but not kept, so a long run cannot exhaust
/// memory; ids stay unique across logs through the `id_base` offset.
class SpanLog {
 public:
  SpanLog(std::uint32_t tid, std::uint64_t id_base, std::size_t capacity);

  /// Records a finished span.
  void add(const char* name, const char* layer, std::uint64_t start,
           std::uint64_t end, std::uint64_t parent);
  /// Reserves an id for a span whose end is not known yet.
  std::uint64_t reserve_id() { return ++next_id_; }
  /// Records a span under an id from reserve_id().
  void add_with_id(std::uint64_t id, const char* name, const char* layer,
                   std::uint64_t start, std::uint64_t end,
                   std::uint64_t parent);

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }
  [[nodiscard]] std::uint64_t dropped() const noexcept { return dropped_; }

 private:
  std::uint32_t tid_;
  std::uint64_t next_id_;
  std::size_t capacity_;
  std::vector<Span> spans_;
  std::uint64_t dropped_ = 0;
};

/// Per-layer total and self time (total minus the part covered by child
/// spans), in seconds, over every span of every log.
struct LayerTime {
  std::string layer;
  double total_s = 0.0;
  double self_s = 0.0;
  std::uint64_t spans = 0;
};
[[nodiscard]] std::vector<LayerTime> layer_times(
    const std::vector<const SpanLog*>& logs);

/// Writes every kept span as Chrome trace_event JSON ("X" events, µs).
void write_chrome_trace(const std::string& path,
                        const std::vector<const SpanLog*>& logs);

/// A reported metric: name, value, unit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Prints the result object the benchmark contract asks for as one line.
void print_result_line(std::ostream& os, bool correct, std::uint64_t attempted,
                       std::uint64_t failed,
                       const std::vector<Metric>& metrics);

/// CPUs this process may run on when it starts (what `nproc` prints).
[[nodiscard]] std::size_t available_cpus();

/// Pins `thread` to the (index mod available_cpus())-th of those CPUs.
/// Threads it creates afterwards inherit the pin.
///
/// Timed rounds rotate their threads over every CPU this way. On a shared
/// host the vCPUs do not run equally fast: with the same instructions, one
/// vCPU can take 1.5x the CPU time of another while the host runs other
/// guests beside it, and which vCPUs are slow changes within a minute. A
/// thread left where the scheduler put it can spend a whole run on a slow
/// one; rotated, every vCPU gets rounds, and the fast tail of the rounds
/// (kFastQuantile) comes from whichever vCPUs are quiet at the time.
void pin_thread(pthread_t thread, std::size_t index);
/// Lets `thread` run on every allowed CPU again.
void unpin_thread(pthread_t thread);

}  // namespace perfbench
