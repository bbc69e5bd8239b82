#include "ladder.hpp"

#include <algorithm>
#include <functional>
#include <memory>
#include <span>
#include <string>

#include "core/convex_caching.hpp"
#include "obs/cost_tracker.hpp"
#include "server/protocol.hpp"
#include "shard/parallel_replay.hpp"
#include "shard/sharded_cache.hpp"
#include "sim/simulator.hpp"

namespace perfbench {

namespace server = ccc::server;

namespace {

/// Passes over every rung: at least kMinPasses, then more while the
/// budget lasts.
constexpr std::size_t kMinPasses = 3;
constexpr std::size_t kMaxPasses = 15;

/// Each shard's subsequence of the trace, in trace order.
std::vector<std::vector<Request>> shard_streams(const ccc::Trace& trace) {
  std::vector<std::vector<Request>> streams(kShards);
  for (const Request& request : trace)
    streams[ccc::shard_of_page(request.page, kShards)].push_back(request);
  return streams;
}

/// Drives the ladder. Every pass builds fresh state untimed, then times its
/// request loop in blocks of kBatch requests: one span per block (a call
/// into the rung's layer) under one span per pass.
class Ladder {
 public:
  explicit Ladder(const LadderInput& input)
      : in_(input),
        workload_(*input.workload),
        streams_(shard_streams(*input.trace)),
        split_(ccc::even_split(workload_.capacity(), kShards)),
        requests_(input.trace->size()) {}

  LadderResult run() {
    // Passes go round-robin over the rungs, so drift in the machine's speed
    // reaches every rung alike and the deltas between rungs stay fair.
    std::vector<std::unique_ptr<ccc::ParallelReplayer>> replayers;
    for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                      in_.threads})
      replayers.push_back(std::make_unique<ccc::ParallelReplayer>(
          ccc::ParallelReplayOptions{threads, kBatch}));
    std::vector<double> efficiency[3];
    std::vector<Rung> rungs = {
        {"rung0.trace", [&] { return pass_iter(); }},
        {"rung1.core", [&] { return pass_policy(); }},
        {"rung2.sim", [&] { return pass_session(); }},
        {"rung3.shard_locked",
         [&] { return pass_shard(ccc::HitPath::kLocked, locked_books_); }},
        {"rung3.shard_seqlock",
         [&] { return pass_shard(ccc::HitPath::kSeqlock, seqlock_books_); }},
        {"rung4.replay_t1",
         [&] { return pass_replay(*replayers[0], efficiency[0]); }},
        {"rung4.replay_t2",
         [&] { return pass_replay(*replayers[1], efficiency[1]); }},
        {"rung4.replay_tN",
         [&] { return pass_replay(*replayers[2], efficiency[2]); }},
        {"rung5.server_codec", [&] { return pass_codec(); }},
        {"server.decode", [&] { return pass_decode(); }},
        {"server.encode", [&] { return pass_encode(); }},
    };
    const std::uint64_t start = now_ns();
    for (std::size_t pass = 0; pass < kMaxPasses; ++pass) {
      if (pass >= kMinPasses &&
          seconds_between(start, now_ns()) >= in_.budget_s)
        break;
      for (Rung& rung : rungs) time_pass(rung);
    }
    const auto ns = [&](std::size_t i) { return median(rungs[i].ns); };
    const double iter = ns(0), policy = ns(1), session = ns(2),
                 locked = ns(3), seqlock = ns(4), codec = ns(8),
                 decode = ns(9), encode = ns(10);
    const double replay_ns[3] = {ns(5), ns(6), ns(7)};

    check_victims();
    check_books("rung 2 (SimulatorSession)", session_books_);
    check_books("rung 3 (ShardedCache, locked)", locked_books_);
    check_books("rung 3 (ShardedCache, seqlock)", seqlock_books_);
    for (std::size_t i = 0; i < replay_books_.size(); ++i)
      check_books("rung 4 (ParallelReplayer, run " + std::to_string(i) + ")",
                  replay_books_[i]);
    check_books("rung 5 (codec round trip)", codec_books_);
    if (codec_decoded_hits_ != in_.reference.total_hits())
      fail("rung 5 client decoded " + std::to_string(codec_decoded_hits_) +
           " hits, the books say " +
           std::to_string(in_.reference.total_hits()));

    const auto add = [&](const std::string& name, double value,
                         const std::string& unit) {
      result_.metrics.push_back({name, value, unit});
    };
    add("trace.iter_ns", iter, "ns");
    add("core.policy_ns", policy, "ns");
    add("core.policy_delta_ns", policy - iter, "ns");
    const double evictions = static_cast<double>(policy_counters_.evictions);
    const double pops = static_cast<double>(policy_counters_.heap_pops);
    add("core.heap_pops_per_evict", evictions > 0 ? pops / evictions : 0.0,
        "count");
    add("core.stale_frac",
        pops > 0 ? static_cast<double>(policy_counters_.stale_skips) / pops
                 : 0.0,
        "fraction");
    add("core.index_rebuilds",
        static_cast<double>(policy_counters_.index_rebuilds), "count");
    add("sim.session_ns", session, "ns");
    add("sim.session_delta_ns", session - policy, "ns");
    add("shard.locked_ns", locked, "ns");
    add("shard.locked_delta_ns", locked - session, "ns");
    add("shard.seqlock_ns", seqlock, "ns");
    add("shard.seqlock_delta_ns", seqlock - session, "ns");
    add("shard.replay_ns_t1", replay_ns[0], "ns");
    add("shard.replay_delta_ns_t1", replay_ns[0] - seqlock, "ns");
    add("shard.replay_ns_t2", replay_ns[1], "ns");
    add("shard.replay_ns_tN", replay_ns[2], "ns");
    add("shard.speedup_tN", replay_ns[0] / replay_ns[2], "x");
    add("shard.parallel_eff_tN", median(efficiency[2]), "fraction");
    add("server.decode_ns", decode, "ns");
    add("server.encode_ns", encode, "ns");
    add("server.codec_rt_ns", codec, "ns");
    add("server.codec_rt_delta_ns", codec - replay_ns[0], "ns");
    add("obs.collect_us", collect_us(), "us");
    return std::move(result_);
  }

 private:
  /// One rung of the ladder: its span name, a pass (returns the ns it
  /// timed) and the ns/request of every pass so far.
  struct Rung {
    const char* name;
    std::function<std::uint64_t()> pass;
    std::vector<double> ns = {};
  };

  /// Runs one pass of `rung` under a span of its own.
  void time_pass(Rung& rung) {
    parent_ = in_.log->reserve_id();
    const std::uint64_t start = now_ns();
    const std::uint64_t timed = rung.pass();
    in_.log->add_with_id(parent_, rung.name, "bench", start, now_ns(), 0);
    rung.ns.push_back(static_cast<double>(timed) /
                      static_cast<double>(requests_));
  }

  /// Runs `block(begin, end)` over `stream` in kBatch blocks, one span per
  /// block; returns the summed block time.
  template <typename Block>
  std::uint64_t blocks(const char* name, const char* layer,
                       const std::vector<Request>& stream, Block block) {
    std::uint64_t timed = 0;
    for (std::size_t begin = 0; begin < stream.size(); begin += kBatch) {
      const std::size_t end = std::min(stream.size(), begin + kBatch);
      const std::uint64_t start = now_ns();
      block(begin, end);
      const std::uint64_t stop = now_ns();
      in_.log->add(name, layer, start, stop, parent_);
      timed += stop - start;
    }
    return timed;
  }

  std::uint64_t pass_iter() {
    std::uint64_t timed = 0;
    std::uint64_t mix = 0;
    for (const auto& stream : streams_)
      timed += blocks("iterate", "trace", stream,
                      [&](std::size_t begin, std::size_t end) {
                        for (std::size_t i = begin; i < end; ++i)
                          mix += stream[i].page ^ stream[i].tenant;
                      });
    sink_ = sink_ + mix;
    return timed;
  }

  std::uint64_t pass_policy() {
    const std::uint64_t pages = workload_.pages_per_tenant;
    std::vector<std::uint8_t> resident(workload_.tenants * pages, 0);
    policy_counters_ = ccc::PerfCounters{};
    policy_victims_.assign(kShards, {});
    std::uint64_t timed = 0;
    for (std::size_t s = 0; s < kShards; ++s) {
      ccc::ConvexCachingPolicy convex;
      ccc::ReplacementPolicy& policy = convex;
      ccc::PolicyContext ctx;
      ctx.capacity = split_[s];
      ctx.num_tenants = workload_.tenants;
      ctx.costs = in_.costs;
      ctx.seed = in_.seed + s;
      policy.reset(ctx);
      const auto slot = [pages](PageId page) {
        return ccc::page_owner(page) * pages + ccc::page_local(page);
      };
      std::vector<PageId>& victims = policy_victims_[s];
      std::size_t size = 0;
      std::size_t time = 0;
      const std::vector<Request>& stream = streams_[s];
      timed += blocks("policy_calls", "core", stream,
                      [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i, ++time) {
          const Request& request = stream[i];
          std::uint8_t& here = resident[slot(request.page)];
          if (here != 0) {
            policy.on_hit(request, time);
            continue;
          }
          if (size >= split_[s]) {
            const PageId victim = policy.choose_victim(request, time);
            resident[slot(victim)] = 0;
            --size;
            policy.on_evict(victim, ccc::page_owner(victim), time);
            victims.push_back(victim);
          }
          here = 1;
          ++size;
          policy.on_insert(request, time);
        }
      });
      policy_counters_.merge(policy.perf_counters());
    }
    return timed;
  }

  std::uint64_t pass_session() {
    ccc::Metrics merged(workload_.tenants);
    session_victims_.assign(kShards, {});
    std::uint64_t timed = 0;
    for (std::size_t s = 0; s < kShards; ++s) {
      ccc::ConvexCachingPolicy policy;
      ccc::SimOptions options;
      options.seed = in_.seed + s;
      ccc::SimulatorSession session(split_[s], workload_.tenants, policy,
                                    in_.costs, options);
      std::vector<PageId>& victims = session_victims_[s];
      const std::vector<Request>& stream = streams_[s];
      timed += blocks("step", "sim", stream,
                      [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          const ccc::StepEvent event = session.step(stream[i]);
          if (event.victim.has_value()) victims.push_back(*event.victim);
        }
      });
      merged.merge(session.metrics());
    }
    session_books_ = Books::of(merged);
    return timed;
  }

  std::uint64_t pass_shard(ccc::HitPath hit_path, Books& books) {
    ccc::Metrics merged(workload_.tenants);
    std::uint64_t timed = 0;
    for (std::size_t s = 0; s < kShards; ++s) {
      ccc::ShardedCache cache(
          cache_options(workload_, in_.seed + s, split_[s], 1, hit_path),
          nullptr, in_.costs);
      const std::vector<Request>& stream = streams_[s];
      timed += blocks("access_batch", "shard", stream,
                      [&](std::size_t begin, std::size_t end) {
        cache.access_batch(
            std::span<const Request>(stream.data() + begin, end - begin));
      });
      merged.merge(cache.aggregated_metrics());
    }
    books = Books::of(merged);
    return timed;
  }

  std::uint64_t pass_replay(ccc::ParallelReplayer& replayer,
                            std::vector<double>& efficiency) {
    ccc::ShardedCache cache(cache_options(workload_, in_.seed), nullptr,
                            in_.costs);
    const std::uint64_t start = now_ns();
    const ccc::ParallelReplayResult result =
        replayer.replay(*in_.trace, cache);
    in_.log->add("replay", "shard", start, now_ns(), parent_);
    const double wall = result.perf.wall_seconds;
    efficiency.push_back(result.shard_seconds /
                         (static_cast<double>(replayer.thread_count()) * wall));
    replay_books_.push_back(Books::of(result.metrics));
    return static_cast<std::uint64_t>(wall * 1e9);
  }

  /// Client encode → server decode + parse → access_batch → server encode →
  /// client decode + parse, one kWindow window at a time, as the server
  /// would see one connection's pipelined window.
  std::uint64_t pass_codec() {
    codec_cache_ = std::make_unique<ccc::ShardedCache>(
        cache_options(workload_, in_.seed), nullptr, in_.costs);
    ccc::ShardedCache& cache = *codec_cache_;
    server::FrameDecoder server_decoder(server::kRequestBodyBytes);
    server::FrameDecoder client_decoder(server::kResponseBodyBytes);
    std::string wire_in;
    std::string wire_out;
    std::vector<Request> batch;
    std::vector<ccc::StepEvent> events;
    std::uint64_t decoded_hits = 0;
    const std::vector<Request>& all = in_.trace->requests();
    const std::uint64_t timed = blocks(
        "codec_round_trip", "server", all,
        [&](std::size_t begin, std::size_t end) {
          for (std::size_t w = begin; w < end; w += kWindow) {
            const std::size_t n = std::min(kWindow, end - w);
            wire_in.clear();
            for (std::size_t i = w; i < w + n; ++i)
              server::append_request(wire_in, server::Opcode::kGet,
                                     all[i].tenant, all[i].page);
            batch.clear();
            server_decoder.feed(wire_in, [&](const server::FrameView& f) {
              const auto msg = server::parse_request(f);
              if (msg.has_value())
                batch.push_back(Request{msg->tenant, msg->page});
            });
            events.clear();
            cache.access_batch(batch, events);
            wire_out.clear();
            for (const ccc::StepEvent& event : events)
              server::append_response(wire_out, event.hit
                                                    ? server::Status::kHit
                                                    : server::Status::kMiss);
            client_decoder.feed(wire_out, [&](const server::FrameView& f) {
              const auto msg = server::parse_response(f);
              if (msg.has_value() &&
                  msg->status == static_cast<std::uint8_t>(
                                     server::Status::kHit))
                ++decoded_hits;
            });
          }
        });
    codec_books_ = Books::of(cache.aggregated_metrics());
    codec_decoded_hits_ = decoded_hits;
    return timed;
  }

  std::uint64_t pass_decode() {
    server::FrameDecoder decoder(server::kRequestBodyBytes);
    std::string wire;
    std::uint64_t tenants = 0;
    std::uint64_t timed = 0;
    const std::vector<Request>& all = in_.trace->requests();
    for (std::size_t begin = 0; begin < all.size(); begin += kBatch) {
      const std::size_t end = std::min(all.size(), begin + kBatch);
      wire.clear();
      for (std::size_t i = begin; i < end; ++i)
        server::append_request(wire, server::Opcode::kGet, all[i].tenant,
                               all[i].page);
      const std::uint64_t start = now_ns();
      decoder.feed(wire, [&](const server::FrameView& frame) {
        const auto msg = server::parse_request(frame);
        if (msg.has_value()) tenants += msg->tenant;
      });
      const std::uint64_t stop = now_ns();
      in_.log->add("feed_parse", "server", start, stop, parent_);
      timed += stop - start;
    }
    sink_ = sink_ + tenants;
    return timed;
  }

  std::uint64_t pass_encode() {
    std::string wire;
    std::uint64_t timed = 0;
    const std::size_t n = in_.trace->size();
    for (std::size_t begin = 0; begin < n; begin += kBatch) {
      const std::size_t end = std::min(n, begin + kBatch);
      wire.clear();
      const std::uint64_t start = now_ns();
      for (std::size_t i = begin; i < end; ++i)
        server::append_response(wire, (i & 1) != 0 ? server::Status::kHit
                                                   : server::Status::kMiss);
      const std::uint64_t stop = now_ns();
      in_.log->add("append_response", "server", start, stop, parent_);
      timed += stop - start;
      sink_ = sink_ + wire.size();
    }
    return timed;
  }

  /// CostTracker::collect + snapshot over the rung-5 cache, µs (median).
  double collect_us() {
    std::vector<double> us;
    for (int i = 0; i < 21; ++i) {
      const std::uint64_t start = now_ns();
      const ccc::obs::CostTracker tracker =
          ccc::obs::CostTracker::collect(*codec_cache_);
      const ccc::obs::CostSnapshot snap =
          tracker.snapshot(*in_.costs, workload_.capacity());
      const std::uint64_t stop = now_ns();
      in_.log->add("collect_snapshot", "obs", start, stop, 0);
      sink_ = sink_ + static_cast<std::uint64_t>(snap.cost_total > 0.0);
      us.push_back(static_cast<double>(stop - start) * 1e-3);
    }
    return median(us);
  }

  void check_victims() {
    std::uint64_t victims = 0;
    for (const std::vector<PageId>& shard : policy_victims_)
      victims += shard.size();
    if (policy_counters_.evictions != victims)
      fail("rung 1 policy counted " +
           std::to_string(policy_counters_.evictions) + " evictions for " +
           std::to_string(victims) + " victims");
    for (std::size_t s = 0; s < kShards; ++s)
      if (policy_victims_[s] != session_victims_[s])
        fail("shard " + std::to_string(s) +
             ": rung 1 victim sequence differs from rung 2 (" +
             std::to_string(policy_victims_[s].size()) + " vs " +
             std::to_string(session_victims_[s].size()) + " victims)");
  }

  void check_books(const std::string& what, const Books& books) {
    if (!(books == in_.reference))
      fail(what + " books differ from the direct access_batch replay");
  }

  void fail(std::string message) {
    result_.mismatches.push_back(std::move(message));
  }

  const LadderInput& in_;
  const Workload& workload_;
  const std::vector<std::vector<Request>> streams_;
  const std::vector<std::size_t> split_;
  const std::size_t requests_;
  std::uint64_t parent_ = 0;
  /// Written once per pass so the compiler keeps the timed loops.
  volatile std::uint64_t sink_ = 0;

  ccc::PerfCounters policy_counters_;
  std::vector<std::vector<PageId>> policy_victims_;
  std::vector<std::vector<PageId>> session_victims_;
  Books session_books_;
  Books locked_books_;
  Books seqlock_books_;
  std::vector<Books> replay_books_;
  Books codec_books_;
  std::uint64_t codec_decoded_hits_ = 0;
  std::unique_ptr<ccc::ShardedCache> codec_cache_;
  LadderResult result_;
};

}  // namespace

LadderResult run_ladder(const LadderInput& input) {
  return Ladder(input).run();
}

}  // namespace perfbench
