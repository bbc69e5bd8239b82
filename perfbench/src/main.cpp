/// \file main.cpp
/// \brief perfbench — the repository's benchmark.
///
///   perfbench --workload NAME --seed N --seconds S --trace 0|1
///
/// --trace 0 measures the end-to-end metrics with no tracing: closed-loop
/// loopback load against an in-process CacheServer, alternating with the
/// in-process ParallelReplayer a library embedder would use. Its timings
/// are CPU time per request in the fast tail of many short rounds, each
/// round on another CPU (cpu_seconds(), kFastQuantile, pin_thread()): on a
/// shared host the wall-clock figures of identical runs spread by a third
/// or more, these by a few percent. The wall-clock figures are printed
/// beside them and reported per layer by the traced run. --trace 1
/// replays the same trace up the layer ladder (ladder.hpp), repeats the
/// loopback with window spans on every other round, and reports the
/// per-layer metrics; its spans are written as Chrome trace_event JSON to
/// .bench_out/ at exit.
///
/// Every run checks its outputs: the server's books must be bit-identical
/// to a direct access_batch replay of the requests it was sent, and the
/// ladder's rungs must agree with each other and with that replay. The last
/// line of standard output is one JSON object; the exit code is 0 only when
/// every check passed.

#include <algorithm>
#include <filesystem>
#include <iomanip>
#include <iostream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "ladder.hpp"
#include "loopback.hpp"
#include "obs/cost_tracker.hpp"
#include "obs/histogram.hpp"
#include "obs/registry.hpp"
#include "shard/parallel_replay.hpp"
#include "shard/sharded_cache.hpp"
#include "support.hpp"

namespace perfbench {
namespace {

/// Setup is repeated this many times per run; setup_s is the median.
/// One set-up, most of it trace generation, can take half as long again as
/// the next on a shared machine, so the median is taken over nine.
constexpr int kSetupRepeats = 9;
/// The CPU-time metrics report this quantile of their rounds, not the
/// median. Interference from the rest of a shared host only ever adds time,
/// and it comes in spells: over a minute the CPU time of the same round can
/// move between two levels nearly 2x apart, and a spell can cover half of a
/// run or more, which moves a median by the full gap. Every round carries
/// the same kind of work, so the fast tail still estimates the program's
/// own cost as long as a tenth of the rounds fall outside such spells.
/// Rounds of ~100k requests are long enough that a rare cost such as an
/// eviction index rebuild lands in most of them.
constexpr double kFastQuantile = 0.1;
/// Share of --seconds spent on the loopback phase; the rest goes to the
/// embedded replay (--trace 0) or the ladder (--trace 1).
constexpr double kLoopbackShareUntraced = 0.65;
constexpr double kLoopbackShareTraced = 0.35;
/// Requests per timed embedded round: short enough (~0.02-0.1 s) for a run
/// to hold a hundred or more rounds, long enough that partitioning the
/// piece and waking the replay's worker thread stay a small part of one.
constexpr std::size_t kEmbeddedPiece = 250'000;
/// Worker threads of the embedded replay. One, not nproc: on a shared
/// 4-vCPU machine the host does not reliably run four threads at once, and
/// the 4-thread figure swung by 2x between identical runs while the
/// 1-thread one held within a few percent. The ladder reports the replay
/// at 1, 2 and nproc threads (rung 4).
constexpr std::size_t kEmbeddedThreads = 1;
/// Minimum embedded replay rounds behind the embedded_cpu_ns quantile.
constexpr std::size_t kMinEmbeddedRounds = 40;
/// Slices the --trace 0 measurement alternates the two phases over.
constexpr std::size_t kSlices = 8;
/// Requests the ladder replays: the first this many of the trace.
constexpr std::size_t kLadderRequests = 2'500'000;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = 0;
};

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
      have_seed = true;
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
      have_seconds = true;
    } else if (flag == "--trace") {
      args.trace = std::stoi(value);
      have_trace = true;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace)
    throw std::invalid_argument(
        "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1");
  if (args.seconds <= 0.0)
    throw std::invalid_argument("--seconds must be positive");
  if (args.trace != 0 && args.trace != 1)
    throw std::invalid_argument("--trace must be 0 or 1");
  return args;
}

/// The direct replay every other path is checked against: a 4-shard
/// seqlock ShardedCache fed through access_batch in kBatch chunks, single
/// threaded.
class Reference {
 public:
  Reference(const Workload& workload, std::uint64_t seed,
            const std::vector<CostFunctionPtr>& costs)
      : cache_(cache_options(workload, seed), nullptr, &costs) {}

  void replay(std::span<const Request> requests) {
    for (std::size_t i = 0; i < requests.size(); i += kBatch)
      cache_.access_batch(
          requests.subspan(i, std::min(kBatch, requests.size() - i)));
  }
  [[nodiscard]] Books books() const {
    return Books::of(cache_.aggregated_metrics());
  }
  [[nodiscard]] const ccc::ShardedCache& cache() const { return cache_; }

 private:
  ccc::ShardedCache cache_;
};

/// The loopback server and its clients after the warm-up pass.
struct LiveServer {
  std::unique_ptr<ServerFixture> fixture;
  std::unique_ptr<LoadDriver> driver;
  LoopbackRun warmup;
};

LiveServer start_and_warm(const Workload& workload, std::uint64_t seed,
                          const ccc::Trace& trace,
                          const std::vector<CostFunctionPtr>& costs) {
  LiveServer live;
  live.fixture = std::make_unique<ServerFixture>(workload, seed, costs);
  live.driver = std::make_unique<LoadDriver>(*live.fixture);
  const std::vector<Chunk> warm = {
      partition(trace.requests(), 0, workload.warmup)};
  live.warmup = live.driver->run(trace.requests(), warm, LoopbackPlan{});
  if (!live.warmup.failure.empty() || live.warmup.failed() != 0)
    throw std::runtime_error("warm-up pass failed: " + live.warmup.failure);
  return live;
}

/// The measured segment cut into rounds of workload.round requests.
std::vector<Chunk> measured_chunks(const Workload& workload,
                                   const ccc::Trace& trace) {
  std::vector<Chunk> chunks;
  const std::size_t end = workload.warmup + workload.measured;
  for (std::size_t begin = workload.warmup; begin < end;
       begin += workload.round)
    chunks.push_back(partition(trace.requests(), begin,
                               std::min(end, begin + workload.round)));
  return chunks;
}

std::span<const Request> chunk_slice(const Workload& workload,
                                     const ccc::Trace& trace,
                                     std::size_t round,
                                     std::size_t chunk_count) {
  const std::size_t begin =
      workload.warmup + (round % chunk_count) * workload.round;
  return std::span<const Request>(
      trace.requests().data() + begin,
      std::min(workload.round, workload.warmup + workload.measured - begin));
}

/// Collects failed checks; the run is correct iff none were recorded.
class Checks {
 public:
  void expect(bool ok, const std::string& what) {
    if (!ok) failures_.push_back(what);
  }
  void add(const std::vector<std::string>& failures) {
    failures_.insert(failures_.end(), failures.begin(), failures.end());
  }
  [[nodiscard]] bool ok() const { return failures_.empty(); }
  void report(std::ostream& os) const {
    for (const std::string& failure : failures_)
      os << "CHECK FAILED: " << failure << "\n";
  }

 private:
  std::vector<std::string> failures_;
};

/// The q-quantile over the untraced (or traced) rounds of `field` (a
/// round's figure) divided by the round's request count.
template <typename Field>
double round_quantile(const std::vector<RoundRecord>& rounds, bool traced,
                      double q, Field field) {
  std::vector<double> values;
  for (const RoundRecord& round : rounds)
    if (round.traced == traced)
      values.push_back(field(round) / static_cast<double>(round.requests));
  return quantile(std::move(values), q);
}

/// Wall-clock requests per second of the loopback rounds, from the median
/// round.
double round_rps(const std::vector<RoundRecord>& rounds, bool traced) {
  return 1.0 / round_quantile(rounds, traced, 0.5, [](const RoundRecord& r) {
           return r.seconds;
         });
}

/// CPU time per request of the server's loop thread (or of the client
/// thread), ns, in the fast tail of the rounds.
double round_cpu_ns(const std::vector<RoundRecord>& rounds, bool traced,
                    bool client) {
  return 1e9 * round_quantile(rounds, traced, kFastQuantile,
                              [client](const RoundRecord& r) {
                                return client ? r.client_cpu_s
                                              : r.server_cpu_s;
                              });
}

void print_metrics(std::ostream& os, const std::vector<Metric>& metrics) {
  for (const Metric& metric : metrics)
    os << "  " << std::left << std::setw(28) << metric.name << std::right
       << std::setw(18) << std::setprecision(6) << metric.value << " "
       << metric.unit << "\n";
}

/// Books of the server and of the direct replay after the same requests.
void check_server_books(Checks& checks, const char* when,
                        const ccc::server::StatsPayload& server,
                        const Books& reference) {
  checks.expect(Books::of(server) == reference,
                std::string("server books ") + when +
                    " differ from the direct access_batch replay");
}

// ---------------------------------------------------------------------------
// --trace 0: end-to-end metrics

int run_untraced(const Workload& workload, const Args& args) {
  const std::vector<CostFunctionPtr> costs = make_costs(workload);
  Checks checks;

  // ---- set-up, repeated; the last instance serves the measured run ----
  // setup_s is the process's CPU time over a set-up: every thread's work
  // (trace generation, server start, connects, the warm-up pass on the
  // client and on the server loop), none of the time spent waiting for a
  // CPU. The wall-clock set-up is printed beside it.
  std::vector<double> setup_seconds, setup_wall, trace_seconds;
  std::unique_ptr<ccc::Trace> trace;
  LiveServer live;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    if (live.fixture != nullptr) {
      live.driver->close();
      live.fixture->stop();
      live = LiveServer{};
    }
    const double cpu = cpu_seconds(CLOCK_PROCESS_CPUTIME_ID);
    const std::uint64_t start = now_ns();
    trace = std::make_unique<ccc::Trace>(make_trace(workload, args.seed));
    const std::uint64_t generated = now_ns();
    live = start_and_warm(workload, args.seed, *trace, costs);
    setup_seconds.push_back(cpu_seconds(CLOCK_PROCESS_CPUTIME_ID) - cpu);
    setup_wall.push_back(seconds_between(start, now_ns()));
    trace_seconds.push_back(seconds_between(start, generated));
  }
  const std::vector<Chunk> chunks = measured_chunks(workload, *trace);

  // ---- the direct replay up to the scored point ----
  Reference reference(workload, args.seed, costs);
  reference.replay(std::span<const Request>(
      trace->requests().data(), workload.warmup + workload.measured));
  const Books scored_books = reference.books();
  const ccc::obs::CostTracker reference_tracker =
      ccc::obs::CostTracker::collect(reference.cache());

  // ---- the embedded path: ParallelReplayer ----
  ccc::ShardedCache embedded(cache_options(workload, args.seed), nullptr,
                            &costs);
  ccc::ParallelReplayer replayer(
      ccc::ParallelReplayOptions{kEmbeddedThreads, kBatch});
  // The trace in pieces of kEmbeddedPiece requests. One pass over them
  // fills the empty cache and is checked against the direct replay; after
  // it every replay of one piece is a timed round.
  std::vector<ccc::Trace> pieces;
  for (std::size_t begin = 0; begin < trace->size(); begin += kEmbeddedPiece) {
    ccc::Trace piece(workload.tenants);
    for (std::size_t i = begin;
         i < std::min(trace->size(), begin + kEmbeddedPiece); ++i)
      piece.append((*trace)[i]);
    pieces.push_back(std::move(piece));
  }
  for (const ccc::Trace& piece : pieces) (void)replayer.replay(piece, embedded);
  checks.expect(Books::of(embedded.aggregated_metrics()) == scored_books,
                "embedded ParallelReplayer books differ from the direct "
                "replay");

  // ---- measurement: loopback and embedded slices, interleaved ----
  // Alternating the two phases spreads each over the whole run, so a spell
  // of lost CPU time on the machine lands on both rather than on one.
  ccc::server::StatsPayload scored_stats;
  ccc::obs::CostTracker scored_tracker;
  LoopbackPlan plan;
  plan.min_rounds = chunks.size();  // the first slice scores a full pass
  plan.record_samples = true;
  plan.at_scored = [&] {
    scored_stats = live.fixture->stats();
    scored_tracker =
        ccc::obs::CostTracker::collect(live.fixture->server().cache());
  };
  LoopbackRun run;
  std::vector<double> embedded_rps, embedded_cpu_ns;
  const double loopback_s = kLoopbackShareUntraced * args.seconds;
  const double embedded_s = args.seconds - loopback_s;
  double loopback_spent = 0.0;
  for (std::size_t slice = 1; slice <= kSlices && run.failure.empty();
       ++slice) {
    const double share =
        static_cast<double>(slice) / static_cast<double>(kSlices);
    plan.first_round = run.rounds.size();
    plan.budget_s = std::max(0.0, loopback_s * share - loopback_spent);
    const std::uint64_t start = now_ns();
    run.append(live.driver->run(trace->requests(), chunks, plan));
    loopback_spent += seconds_between(start, now_ns());

    const std::uint64_t embedded_start = now_ns();
    const std::size_t min_rounds = kMinEmbeddedRounds * slice / kSlices;
    while (embedded_rps.size() < min_rounds ||
           seconds_between(embedded_start, now_ns()) <
               embedded_s / static_cast<double>(kSlices)) {
      const ccc::Trace& piece = pieces[embedded_rps.size() % pieces.size()];
      // Round r runs on CPU r: the replayer's worker inherits the caller's
      // pin when the replayer starts it.
      pin_thread(pthread_self(), embedded_rps.size());
      ccc::ParallelReplayer pinned(
          ccc::ParallelReplayOptions{kEmbeddedThreads, kBatch});
      // The process CPU clock: the replay's worker thread plus the caller
      // (partitioning the piece, waiting); the server loop sleeps.
      const double cpu = cpu_seconds(CLOCK_PROCESS_CPUTIME_ID);
      const ccc::ParallelReplayResult result = pinned.replay(piece, embedded);
      embedded_cpu_ns.push_back(
          1e9 * (cpu_seconds(CLOCK_PROCESS_CPUTIME_ID) - cpu) /
          static_cast<double>(piece.size()));
      embedded_rps.push_back(static_cast<double>(piece.size()) /
                             result.perf.wall_seconds);
    }
    unpin_thread(pthread_self());
  }
  const ccc::server::StatsPayload final_stats = live.fixture->stats();
  live.driver->close();
  live.fixture->stop();
  checks.expect(run.failure.empty(), "transport failure: " + run.failure);
  checks.expect(run.failed() == 0,
                std::to_string(run.failed()) + " requests not answered "
                "with a hit or a miss");

  // ---- the direct replay of every round after the scored pass ----
  for (std::size_t r = chunks.size(); r < run.rounds.size(); ++r)
    reference.replay(chunk_slice(workload, *trace, r, chunks.size()));
  check_server_books(checks, "after the scored pass", scored_stats,
                     scored_books);
  check_server_books(checks, "at the end", final_stats, reference.books());

  const double miss_cost = ccc::total_cost(scored_books.misses, costs);
  const ccc::obs::CostSnapshot snap =
      scored_tracker.snapshot(costs, workload.capacity());
  const ccc::obs::CostSnapshot reference_snap =
      reference_tracker.snapshot(costs, workload.capacity());
  checks.expect(snap.cost_total == miss_cost,
                "CostTracker cost differs from the books' miss cost");
  checks.expect(snap.cost_total == reference_snap.cost_total &&
                    snap.dual_lower_bound == reference_snap.dual_lower_bound,
                "server CostTracker differs from the direct replay's");
  checks.expect(snap.certified && snap.competitive_ratio > 0.0,
                "no certified dual lower bound after the scored pass");
  checks.expect(!snap.certified ||
                    snap.competitive_ratio <= snap.theorem_ratio_bound,
                "competitive ratio exceeds the Theorem 1.1 bound");

  // ---- report ----
  const std::vector<Percentile> latency =
      exact_percentiles(std::move(run.latency_ns), {0.5, 0.99});
  checks.expect(latency.size() == 2, "no latency samples");
  std::vector<Metric> metrics = {
      {"server_cpu_ns", round_cpu_ns(run.rounds, false, false), "ns/req"},
      {"embedded_cpu_ns", quantile(embedded_cpu_ns, kFastQuantile),
       "ns/req"},
      {"miss_cost", miss_cost, "cost"},
      {"competitive_ratio", snap.competitive_ratio, "x"},
      {"setup_s", median(setup_seconds), "s"},
  };
  std::cout << "workload " << workload.name << " seed " << args.seed
            << ": " << run.rounds.size() << " loopback rounds of "
            << workload.round << " requests (" << chunks.size()
            << " per pass), " << embedded_rps.size()
            << " embedded rounds at " << kEmbeddedThreads << " thread(s)\n";
  std::cout << "CPU ns/req at the median round: server loop "
            << 1e9 * round_quantile(run.rounds, false, 0.5,
                                    [](const RoundRecord& r) {
                                      return r.server_cpu_s;
                                    })
            << ", embedded " << median(embedded_cpu_ns)
            << "; client thread at the fast quantile "
            << round_cpu_ns(run.rounds, false, true) << "\n";
  // Wall-clock figures are printed, not reported: their run-to-run spread
  // follows the host's load. The traced run reports them per layer.
  std::cout << "wall clock: loopback " << round_rps(run.rounds, false)
            << " req/s, embedded " << median(embedded_rps) << " req/s\n";
  if (latency.size() == 2)
    std::cout << "latency over " << latency[0].count << " samples: p50 "
              << latency[0].value * 1e-3 << " us with " << latency[0].above
              << " above it, p99 " << latency[1].value * 1e-3 << " us with "
              << latency[1].above << " above it\n";
  std::cout << "set-up: median " << median(setup_seconds) << " CPU s, "
            << median(setup_wall) << " wall s of which trace generation "
            << median(trace_seconds) << " s; CPU s of each of "
            << kSetupRepeats << ":";
  for (double seconds : setup_seconds) std::cout << " " << seconds;
  std::cout << "\n";
  std::cout << "scored pass: misses " << scored_books.total_misses()
            << ", evictions " << scored_books.total_evictions()
            << ", dual lower bound " << snap.dual_lower_bound
            << ", Theorem 1.1 ratio bound " << snap.theorem_ratio_bound
            << "\n";
  std::cout << "error_frac "
            << static_cast<double>(run.failed()) /
                   static_cast<double>(std::max<std::uint64_t>(1,
                                                               run.attempted))
            << " (" << run.failed() << " of " << run.attempted << ")\n";
  print_metrics(std::cout, metrics);
  checks.report(std::cout);
  print_result_line(std::cout, checks.ok(), run.attempted, run.failed(),
                    metrics);
  return checks.ok() ? 0 : 1;
}

// ---------------------------------------------------------------------------
// --trace 1: per-layer metrics

/// Median of a histogram snapshot, interpolated linearly inside the bucket
/// that holds it. The bucket midpoint HistogramSnapshot::quantile returns
/// reads the same on most runs, which hides real movement.
double interpolated_median(const ccc::obs::HistogramSnapshot& snap) {
  const double rank = 0.5 * static_cast<double>(snap.count);
  double below = 0.0;
  for (std::size_t i = 0; i < snap.buckets.size(); ++i) {
    const auto in_bucket = static_cast<double>(snap.buckets[i]);
    if (in_bucket == 0.0) continue;
    if (below + in_bucket >= rank) {
      const auto low = static_cast<double>(ccc::obs::Histogram::bucket_low(i));
      const double width =
          static_cast<double>(ccc::obs::Histogram::bucket_high(i)) + 1.0 -
          low;
      return low + width * (rank - below) / in_bucket;
    }
    below += in_bucket;
  }
  return 0.0;
}

/// p50 of one stage of ccc_server_stage_latency_ns, µs.
double stage_p50_us(const ccc::obs::MetricsRegistry& registry,
                    const std::string& stage) {
  const ccc::obs::MetricFamily* family =
      registry.find("ccc_server_stage_latency_ns");
  if (family == nullptr)
    throw std::runtime_error("server exports no stage latency histograms");
  for (const ccc::obs::HistogramSample& sample : family->histograms)
    for (const auto& [key, label] : sample.labels)
      if (key == "stage" && label == stage)
        return interpolated_median(sample.snapshot) * 1e-3;
  throw std::runtime_error("no stage latency histogram for " + stage);
}

int run_traced(const Workload& workload, const Args& args) {
  const std::vector<CostFunctionPtr> costs = make_costs(workload);
  Checks checks;
  const ccc::Trace trace = make_trace(workload, args.seed);
  const std::size_t scored = workload.warmup + workload.measured;
  const std::vector<Chunk> chunks = measured_chunks(workload, trace);

  SpanLog main_log(0, 0, 400'000);
  std::vector<SpanLog> window_logs;
  for (std::size_t c = 0; c < kConnections; ++c)
    window_logs.emplace_back(static_cast<std::uint32_t>(c + 1),
                             (c + 1) << 40, 200'000);

  // ---- loopback with window spans on every other round ----
  LiveServer live = start_and_warm(workload, args.seed, trace, costs);
  const ccc::server::StatsPayload pre = live.fixture->stats();
  LoopbackPlan plan;
  plan.budget_s = kLoopbackShareTraced * args.seconds;
  plan.min_rounds = chunks.size();
  plan.record_samples = true;
  plan.interleave_traced = true;
  LoopbackRun run = live.driver->run(trace.requests(), chunks, plan,
                                     &main_log, &window_logs);
  const ccc::server::StatsPayload post = live.fixture->stats();
  live.driver->close();
  live.fixture->stop();
  checks.expect(run.failure.empty(), "transport failure: " + run.failure);
  checks.expect(run.failed() == 0,
                std::to_string(run.failed()) + " requests not answered "
                "with a hit or a miss");

  // The ladder replays a prefix of the trace, so that a pass over it costs
  // about the same on every workload.
  const std::size_t ladder_length = std::min(scored, kLadderRequests);
  ccc::Trace ladder_trace(workload.tenants);
  for (std::size_t i = 0; i < ladder_length; ++i) ladder_trace.append(trace[i]);
  Reference reference(workload, args.seed, costs);
  const std::span<const Request> all(trace.requests());
  reference.replay(all.first(ladder_length));
  const Books ladder_books = reference.books();
  reference.replay(all.subspan(ladder_length, scored - ladder_length));
  for (std::size_t r = chunks.size(); r < run.rounds.size(); ++r)
    reference.replay(chunk_slice(workload, trace, r, chunks.size()));
  check_server_books(checks, "at the end", post, reference.books());

  const Books delta = Books::delta(Books::of(pre), Books::of(post));
  const double hits = static_cast<double>(delta.total_hits());
  const double answered = hits + static_cast<double>(delta.total_misses());
  const ccc::server::CacheServer& server = live.fixture->server();
  const ccc::server::ServerCounters counters = server.counters();
  ccc::obs::MetricsRegistry registry;
  server.fill_metrics(registry);
  std::vector<double> scrape_us;
  for (int i = 0; i < 21; ++i) {
    const std::uint64_t start = now_ns();
    ccc::obs::MetricsRegistry fresh;
    server.fill_metrics(fresh);
    std::ostringstream prom;
    fresh.write_prometheus(prom);
    const std::uint64_t stop = now_ns();
    main_log.add("fill_metrics_render", "obs", start, stop, 0);
    scrape_us.push_back(static_cast<double>(stop - start) * 1e-3);
  }
  const double untraced_rps = round_rps(run.rounds, false);
  const double traced_rps = round_rps(run.rounds, true);
  const double loopback_ns = 1e9 / untraced_rps;

  // ---- the ladder ----
  LadderInput ladder_input;
  ladder_input.workload = &workload;
  ladder_input.seed = args.seed;
  ladder_input.trace = &ladder_trace;
  ladder_input.costs = &costs;
  ladder_input.reference = ladder_books;
  ladder_input.budget_s = (1.0 - kLoopbackShareTraced) * args.seconds;
  ladder_input.threads = std::min(kShards, available_cpus());
  ladder_input.log = &main_log;
  const LadderResult ladder = run_ladder(ladder_input);
  checks.add(ladder.mismatches);

  std::vector<Metric> metrics = ladder.metrics;
  double codec_rt_ns = 0.0;
  for (const Metric& metric : metrics)
    if (metric.name == "server.codec_rt_ns") codec_rt_ns = metric.value;
  const auto add = [&](const std::string& name, double value,
                       const std::string& unit) {
    metrics.push_back({name, value, unit});
  };
  add("shard.lockfree_frac",
      hits > 0 ? static_cast<double>(post.lockfree_hits - pre.lockfree_hits) /
                     hits
               : 0.0,
      "fraction");
  add("shard.hit_rate", answered > 0 ? hits / answered : 0.0, "fraction");
  add("shard.evict_per_kreq",
      answered > 0
          ? 1e3 * static_cast<double>(delta.total_evictions()) / answered
          : 0.0,
      "count");
  add("server.loopback_ns", loopback_ns, "ns");
  add("server.loopback_delta_ns", loopback_ns - codec_rt_ns, "ns");
  for (const char* stage : {"decode", "queue", "cache", "encode", "flush"})
    add(std::string("server.stage_") + stage + "_p50_us",
        stage_p50_us(registry, stage), "us");
  add("server.batch_mean",
      counters.batches > 0 ? static_cast<double>(counters.requests) /
                                 static_cast<double>(counters.batches)
                           : 0.0,
      "req");
  add("server.bytes_out_per_req",
      counters.requests > 0 ? static_cast<double>(counters.bytes_written) /
                                  static_cast<double>(counters.requests)
                            : 0.0,
      "B/req");
  add("server.error_frac",
      static_cast<double>(run.failed()) /
          static_cast<double>(std::max<std::uint64_t>(1, run.attempted)),
      "fraction");
  add("obs.scrape_us", median(scrape_us), "us");
  add("bench.trace_overhead", traced_rps / untraced_rps, "x");
  add("server.client_cpu_ns", round_cpu_ns(run.rounds, false, true),
      "ns/req");
  const std::vector<Percentile> latency =
      exact_percentiles(std::move(run.latency_ns), {0.5, 0.99});
  checks.expect(latency.size() == 2, "no latency samples");
  add("server.latency_p50_us", latency.empty() ? 0.0 : latency[0].value * 1e-3,
      "us");
  add("server.latency_p99_us", latency.empty() ? 0.0 : latency[1].value * 1e-3,
      "us");
  add("bench.latency_samples",
      latency.empty() ? 0.0 : static_cast<double>(latency[0].count), "count");


  // ---- spans: self time per layer, then the Chrome trace ----
  std::vector<const SpanLog*> logs = {&main_log};
  std::uint64_t dropped = main_log.dropped();
  for (const SpanLog& log : window_logs) {
    logs.push_back(&log);
    dropped += log.dropped();
  }
  std::cout << "workload " << workload.name << " seed " << args.seed << ": "
            << run.rounds.size() << " loopback rounds (odd rounds traced), "
            << "ladder over " << ladder_length << " requests, rung 4 N = "
            << ladder_input.threads << "\n";
  if (!latency.empty())
    std::cout << "latency over " << latency[0].count << " samples: p50 has "
              << latency[0].above << " above it, p99 has " << latency[1].above
              << " above it\n";
  std::cout << "self time per layer from spans (" << dropped
            << " spans dropped past the in-memory cap):\n";
  for (const LayerTime& layer : layer_times(logs))
    std::cout << "  " << std::left << std::setw(8) << layer.layer
              << std::right << " spans " << std::setw(8) << layer.spans
              << "  total " << std::setw(10) << std::setprecision(4)
              << layer.total_s << " s  self " << std::setw(10)
              << layer.self_s << " s\n";
  const std::string trace_path = ".bench_out/trace-" + workload.name + ".json";
  std::filesystem::create_directories(".bench_out");
  write_chrome_trace(trace_path, logs);
  std::cout << "spans written to " << trace_path << "\n";
  print_metrics(std::cout, metrics);
  checks.report(std::cout);
  print_result_line(std::cout, checks.ok(), run.attempted, run.failed(),
                    metrics);
  return checks.ok() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    const perfbench::Args args = perfbench::parse_args(argc, argv);
    const perfbench::Workload& workload =
        perfbench::find_workload(args.workload);
    return args.trace == 0 ? perfbench::run_untraced(workload, args)
                           : perfbench::run_traced(workload, args);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
