#include "offline/opt_bounds.hpp"

#include <queue>
#include <stdexcept>

#include "offline/weighted_belady.hpp"
#include "util/check.hpp"

namespace ccc {

OptResult cheapest_distribution(std::uint64_t total_misses,
                                const std::vector<CostFunctionPtr>& costs,
                                std::uint32_t num_tenants) {
  CCC_REQUIRE(num_tenants > 0, "need at least one tenant");
  CCC_REQUIRE(costs.size() >= num_tenants,
              "need one cost function per tenant");
  OptResult result;
  result.misses.assign(num_tenants, 0);

  // Greedy: hand each successive miss to the tenant with the smallest
  // marginal cost — optimal because convex marginals are non-decreasing.
  using Entry = std::pair<double, std::uint32_t>;  // (marginal, tenant)
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> heap;
  for (std::uint32_t i = 0; i < num_tenants; ++i)
    heap.emplace(costs[i]->marginal(0), i);
  for (std::uint64_t step = 0; step < total_misses; ++step) {
    const auto [marginal, tenant] = heap.top();
    heap.pop();
    result.cost += marginal;
    const std::uint64_t m = ++result.misses[tenant];
    heap.emplace(costs[tenant]->marginal(m), tenant);
  }
  return result;
}

OptEstimate estimate_opt(const Trace& trace, std::size_t capacity,
                         const std::vector<CostFunctionPtr>& costs,
                         std::size_t exact_page_limit) {
  OptEstimate estimate;

  if (trace.distinct_pages() <= exact_page_limit) {
    try {
      const OptResult exact = exact_opt(trace, capacity, costs);
      estimate.exact = true;
      estimate.upper_cost = estimate.lower_cost = exact.cost;
      estimate.upper_misses = exact.misses;
      return estimate;
    } catch (const std::runtime_error&) {
      // State budget exceeded — fall through to the heuristic bracket.
    }
  }

  // Upper bound: iterated weighted Belady, whose first pass is plain
  // Belady and which keeps the best schedule seen.
  std::uint64_t belady_misses = 0;
  const OptResult reweighted =
      iterated_weighted_belady(trace, capacity, costs, &belady_misses);
  estimate.upper_cost = reweighted.cost;
  estimate.upper_misses = reweighted.misses;

  // Lower bound: Belady's total miss count is the minimum achievable by any
  // schedule; the cheapest convex distribution of that many misses bounds
  // every schedule's cost from below.
  estimate.lower_cost =
      cheapest_distribution(belady_misses, costs, trace.num_tenants()).cost;
  return estimate;
}

}  // namespace ccc
