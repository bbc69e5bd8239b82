#include "loopback.hpp"

#include <pthread.h>

#include <algorithm>
#include <array>
#include <limits>
#include <stdexcept>

#include "shard/sharded_cache.hpp"

namespace perfbench {

namespace server = ccc::server;

namespace {
/// Latency samples reserved up front, so the timed loop rarely reallocates.
constexpr std::size_t kLatencyReserve = std::size_t{1} << 24;
}  // namespace

ServerFixture::ServerFixture(const Workload& workload, std::uint64_t seed,
                             const std::vector<CostFunctionPtr>& costs) {
  server::ServerOptions options;  // ccc-serverd defaults: metrics on
  server_ = std::make_unique<server::CacheServer>(
      options, cache_options(workload, seed), nullptr, &costs);
  server_->start();
  thread_ = std::thread([this] {
    try {
      rc_ = server_->run();
    } catch (const std::exception& e) {
      failure_ = e.what();
      rc_ = -1;
    }
  });
  loop_thread_ = thread_.native_handle();
  if (pthread_getcpuclockid(loop_thread_, &loop_cpu_clock_) != 0) {
    server_->request_stop();
    thread_.join();
    throw std::runtime_error("no CPU clock for the server loop thread");
  }
}

ServerFixture::~ServerFixture() {
  try {
    stop();
  } catch (const std::exception&) {
    // stop() already joined the loop; the failure was reported by the
    // explicit stop() call the benchmark makes before destruction.
  }
}

server::StatsPayload ServerFixture::stats() const {
  server::BlockingClient probe("127.0.0.1", port());
  return probe.stats();
}

void ServerFixture::stop() {
  if (!thread_.joinable()) return;
  server_->request_stop();
  thread_.join();
  if (rc_ != 0)
    throw std::runtime_error("in-process server exited with " +
                             std::to_string(rc_) + " " + failure_);
}

Chunk partition(const std::vector<Request>& trace, std::size_t begin,
                std::size_t end) {
  Chunk chunk(kConnections);
  for (std::size_t i = begin; i < end; ++i)
    chunk[ccc::shard_of_page(trace[i].page, kShards) % kConnections]
        .push_back(static_cast<std::uint32_t>(i));
  return chunk;
}

LoadDriver::LoadDriver(const ServerFixture& server) : server_(server) {
  for (std::size_t c = 0; c < kConnections; ++c)
    clients_.push_back(
        std::make_unique<server::BlockingClient>("127.0.0.1", server.port()));
}

void LoadDriver::close() {
  for (auto& client : clients_) client->close();
}

LoopbackRun LoadDriver::run(const std::vector<Request>& trace,
                            const std::vector<Chunk>& chunks,
                            const LoopbackPlan& plan, SpanLog* round_log,
                            std::vector<SpanLog>* window_logs) {
  if (chunks.empty()) throw std::invalid_argument("no chunks to send");
  const bool tracing = plan.interleave_traced && round_log != nullptr &&
                       window_logs != nullptr &&
                       window_logs->size() == clients_.size();
  LoopbackRun out;
  if (plan.record_samples) out.latency_ns.reserve(kLatencyReserve);

  // Per connection: the round's request list, the next one to send, the
  // window in flight and when it was flushed.
  std::array<const std::vector<std::uint32_t>*, kConnections> lists{};
  std::array<std::size_t, kConnections> next{};
  std::array<std::size_t, kConnections> in_flight{};
  std::array<std::uint64_t, kConnections> flushed{};
  bool traced = false;
  std::uint64_t round_span = 0;

  const auto send_window = [&](std::size_t c) {
    const std::vector<std::uint32_t>& mine = *lists[c];
    const std::size_t n = std::min(kWindow, mine.size() - next[c]);
    in_flight[c] = n;
    if (n == 0) return;
    server::BlockingClient& client = *clients_[c];
    for (std::size_t j = 0; j < n; ++j) {
      const Request& request = trace[mine[next[c] + j]];
      client.enqueue_get(request.tenant, request.page);
    }
    next[c] += n;
    out.attempted += n;
    flushed[c] = now_ns();
    client.flush();
  };
  const auto receive_window = [&](std::size_t c) {
    const std::uint64_t since = flushed[c];
    clients_[c]->read_responses(
        in_flight[c], [&](const server::ResponseMsg& msg) {
          if (plan.record_samples)
            out.latency_ns.push_back(static_cast<std::uint32_t>(
                std::min<std::uint64_t>(
                    now_ns() - since,
                    std::numeric_limits<std::uint32_t>::max())));
          if (msg.status == static_cast<std::uint8_t>(server::Status::kHit))
            ++out.hits;
          else if (msg.status ==
                   static_cast<std::uint8_t>(server::Status::kMiss))
            ++out.misses;
        });
    if (traced)
      (*window_logs)[c].add("window", "server", since, now_ns(), round_span);
    in_flight[c] = 0;
  };

  const std::uint64_t first_start = now_ns();
  try {
    for (std::size_t round = plan.first_round;; ++round) {
      if (round >= plan.min_rounds &&
          seconds_between(first_start, now_ns()) >= plan.budget_s)
        break;
      const Chunk& chunk = chunks[round % chunks.size()];
      traced = tracing && round % 2 == 1;
      round_span = traced ? round_log->reserve_id() : 0;
      // Every ordered pair of distinct CPUs comes up: the loop on CPU r,
      // the client 1 to n-1 CPUs after it, the gap stepping every n rounds.
      const std::size_t cpus = available_cpus();
      const std::size_t gap = 1 + (round / cpus) % std::max<std::size_t>(
                                      1, cpus - 1);
      pin_thread(server_.loop_thread(), round);
      pin_thread(pthread_self(), round + gap);
      RoundRecord record;
      record.traced = traced;
      const double server_cpu = cpu_seconds(server_.loop_cpu_clock());
      const double client_cpu = cpu_seconds(CLOCK_THREAD_CPUTIME_ID);
      const std::uint64_t start = now_ns();
      for (std::size_t c = 0; c < kConnections; ++c) {
        lists[c] = &chunk[c];
        next[c] = 0;
        record.requests += chunk[c].size();
        send_window(c);
      }
      for (bool busy = true; busy;) {
        busy = false;
        for (std::size_t c = 0; c < kConnections; ++c) {
          if (in_flight[c] == 0) continue;
          receive_window(c);
          send_window(c);
          busy = true;
        }
      }
      const std::uint64_t stop = now_ns();
      record.seconds = seconds_between(start, stop);
      record.server_cpu_s =
          cpu_seconds(server_.loop_cpu_clock()) - server_cpu;
      record.client_cpu_s = cpu_seconds(CLOCK_THREAD_CPUTIME_ID) - client_cpu;
      out.rounds.push_back(record);
      if (traced)
        round_log->add_with_id(round_span, "round", "bench", start, stop, 0);
      if (round + 1 == plan.min_rounds && plan.at_scored) plan.at_scored();
    }
  } catch (const std::exception& e) {
    out.failure = e.what();
  }
  unpin_thread(server_.loop_thread());
  unpin_thread(pthread_self());
  return out;
}

void LoopbackRun::append(LoopbackRun&& later) {
  rounds.insert(rounds.end(), later.rounds.begin(), later.rounds.end());
  attempted += later.attempted;
  hits += later.hits;
  misses += later.misses;
  latency_ns.insert(latency_ns.end(), later.latency_ns.begin(),
                    later.latency_ns.end());
  if (failure.empty()) failure = std::move(later.failure);
}

}  // namespace perfbench
