#pragma once
/// \file loopback.hpp
/// \brief Closed-loop loopback load against an in-process CacheServer.
///
/// The server runs as ccc-serverd would by default (4 shards, seqlock hit
/// path, metrics listener on) on an ephemeral port, its event loop on one
/// thread. The load comes from kConnections blocking clients driven in turn
/// by one client thread: each connection carries a window of kWindow GETs,
/// and as soon as a connection's responses are all read, its next window is
/// flushed — a cache client waits for the page before it uses it. With one
/// client thread the run needs two CPUs at most, the server loop's and the
/// client's, and the loop works on one connection's window while the client
/// reads the other's.
///
/// Determinism (DESIGN.md §12): connection c carries exactly the requests
/// whose shard s has `s % kConnections == c`, in trace order, and a round
/// ends only when every response of the round is read. Each shard therefore
/// sees its requests in trace order over one connection, so the server's
/// books are bit-identical to a direct single-threaded access_batch replay
/// of the requests sent, in the order sent.

#include <cstdint>
#include <ctime>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "server/client.hpp"
#include "server/server.hpp"
#include "support.hpp"

namespace perfbench {

/// The in-process server, started on construction and stopped (gracefully,
/// joining its loop thread) by stop() or the destructor.
class ServerFixture {
 public:
  ServerFixture(const Workload& workload, std::uint64_t seed,
                const std::vector<CostFunctionPtr>& costs);
  ~ServerFixture();
  ServerFixture(const ServerFixture&) = delete;
  ServerFixture& operator=(const ServerFixture&) = delete;

  [[nodiscard]] std::uint16_t port() const noexcept {
    return server_->port();
  }
  [[nodiscard]] const ccc::server::CacheServer& server() const noexcept {
    return *server_;
  }
  /// The server's event-loop thread and its CPU clock (see cpu_seconds()).
  [[nodiscard]] pthread_t loop_thread() const noexcept { return loop_thread_; }
  [[nodiscard]] clockid_t loop_cpu_clock() const noexcept {
    return loop_cpu_clock_;
  }
  /// STATS over a fresh connection.
  [[nodiscard]] ccc::server::StatsPayload stats() const;
  /// Stops the loop and joins it; throws if run() failed. Idempotent.
  void stop();

 private:
  std::unique_ptr<ccc::server::CacheServer> server_;
  int rc_ = 0;
  std::string failure_;
  std::thread thread_;
  pthread_t loop_thread_{};
  clockid_t loop_cpu_clock_{};
};

/// One round: trace indices split by connection, each list in trace order.
using Chunk = std::vector<std::vector<std::uint32_t>>;
/// The round made of trace positions [begin, end).
[[nodiscard]] Chunk partition(const std::vector<Request>& trace,
                              std::size_t begin, std::size_t end);

struct LoopbackPlan {
  /// Keep starting rounds until this much time has passed …
  double budget_s = 0.0;
  /// … and round `min_rounds − 1` has run.
  std::size_t min_rounds = 1;
  /// Index of this run's first round: a run may continue an earlier one.
  std::size_t first_round = 0;
  /// Record per-request latency.
  bool record_samples = false;
  /// Odd rounds record one span per window round trip (and one per round);
  /// even rounds record none, so both kinds interleave over the run.
  bool interleave_traced = false;
  /// Runs after round `min_rounds − 1`, while every connection is idle
  /// with all its responses read.
  std::function<void()> at_scored;
};

struct RoundRecord {
  double seconds = 0.0;
  std::size_t requests = 0;
  bool traced = false;
  double server_cpu_s = 0.0;  ///< CPU time of the server's loop thread
  double client_cpu_s = 0.0;  ///< CPU time of the client thread
};

struct LoopbackRun {
  std::vector<RoundRecord> rounds;
  std::uint64_t attempted = 0;  ///< requests sent
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  /// Flush-to-response time of every answered request, ns: until the
  /// client thread reads the response, which for the second connection
  /// includes reading and refilling the first.
  std::vector<std::uint32_t> latency_ns;
  std::string failure;          ///< first transport failure, if any

  /// Requests not answered with a hit or a miss: error statuses and
  /// requests lost to a transport failure.
  [[nodiscard]] std::uint64_t failed() const {
    return attempted - hits - misses;
  }
  /// Adds a later run of the same LoadDriver to this one.
  void append(LoopbackRun&& later);
};

/// The client side: kConnections connected clients, driven in turn from
/// the calling thread.
class LoadDriver {
 public:
  /// Connects to `server`, which must outlive the driver.
  explicit LoadDriver(const ServerFixture& server);

  /// Round r sends the requests of `trace` that chunks[r % chunks.size()]
  /// lists, with the server loop and the calling thread pinned to a pair of
  /// CPUs that changes every round (see pin_thread()). With tracing, window
  /// spans go to `window_logs[c]` (one per connection) and round spans to
  /// `round_log`.
  LoopbackRun run(const std::vector<Request>& trace,
                  const std::vector<Chunk>& chunks, const LoopbackPlan& plan,
                  SpanLog* round_log = nullptr,
                  std::vector<SpanLog>* window_logs = nullptr);

  void close();

 private:
  const ServerFixture& server_;
  std::vector<std::unique_ptr<ccc::server::BlockingClient>> clients_;
};

}  // namespace perfbench
