#pragma once
/// \file ladder.hpp
/// \brief The in-process layer ladder: one trace replayed up successive
///        rungs, each adding one src/ module on top of the rung below.
///
///   0 trace   iterate the requests (the floor)
///   1 core    bare ReplacementPolicy hooks; residency kept by the bench
///   2 sim     SimulatorSession::step
///   3 shard   1-shard ShardedCache::access_batch, locked and seqlock
///   4 shard   ParallelReplayer over the 4-shard cache at 1, 2, N threads
///   5 server  in-memory codec round trip around access_batch, no sockets
///
/// Rungs 0–3 replay each shard's subsequence of the trace against its own
/// instance sized like that shard of the server's cache, so every rung
/// computes the same per-shard schedule as rungs 4–6: rung 1's victims must
/// equal rung 2's, and the books of rungs 2–5 must equal the direct replay.

#include <string>
#include <vector>

#include "support.hpp"

namespace perfbench {

struct LadderInput {
  const Workload* workload = nullptr;
  std::uint64_t seed = 0;
  const ccc::Trace* trace = nullptr;
  const std::vector<CostFunctionPtr>* costs = nullptr;
  Books reference;        ///< direct access_batch replay of the whole trace
  double budget_s = 0.0;  ///< time to spend across all rungs
  std::size_t threads = 1;  ///< N of rung 4
  SpanLog* log = nullptr;
};

struct LadderResult {
  std::vector<Metric> metrics;
  std::vector<std::string> mismatches;  ///< failed correctness checks
};

[[nodiscard]] LadderResult run_ladder(const LadderInput& input);

}  // namespace perfbench
