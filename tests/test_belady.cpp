// Tests for Belady/MIN (offline/weighted_belady.hpp): exact behavior on
// crafted traces and optimality (minimum total misses) against brute force.
#include "offline/weighted_belady.hpp"

#include <gtest/gtest.h>

#include "cost/monomial.hpp"
#include "offline/exact_opt.hpp"
#include "sim/simulator.hpp"
#include "trace/generators.hpp"

namespace ccc {
namespace {

TEST(Belady, EvictsFurthestInFuture) {
  Trace t(1);
  // 1 2 3 1 2: at the miss on 3, page 1 is next used at t=3, page 2 at
  // t=4 → evict 2.
  for (const int p : {1, 2, 3, 1, 2}) t.append(0, static_cast<PageId>(p));
  BeladyPolicy belady;
  SimOptions options;
  options.record_events = true;
  const SimResult result = run_trace(t, 2, belady, nullptr, options);
  ASSERT_TRUE(result.events[2].victim.has_value());
  EXPECT_EQ(*result.events[2].victim, PageId{2});
}

TEST(Belady, PrefersNeverUsedAgain) {
  Trace t(1);
  // 1 2 3 1: page 2 never recurs → evict it even though 1 is older.
  for (const int p : {1, 2, 3, 1}) t.append(0, static_cast<PageId>(p));
  BeladyPolicy belady;
  SimOptions options;
  options.record_events = true;
  const SimResult result = run_trace(t, 2, belady, nullptr, options);
  ASSERT_TRUE(result.events[2].victim.has_value());
  EXPECT_EQ(*result.events[2].victim, PageId{2});
}

TEST(Belady, RequiresPreview) {
  BeladyPolicy belady;
  SimulatorSession session(1, 1, belady, nullptr);
  session.step({0, 1});
  EXPECT_THROW(session.step({0, 2}), std::logic_error);
}

// Property: Belady achieves the minimum possible total miss count —
// compare against the exact DP with a linear single-tenant objective
// (where cost == total misses).
class BeladyOptimalityTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BeladyOptimalityTest, MatchesExactMinimumMisses) {
  Rng rng(GetParam());
  const Trace t = random_uniform_trace(1, 6, 24, rng);
  const std::size_t k = 3;
  std::vector<CostFunctionPtr> costs;
  costs.push_back(std::make_unique<MonomialCost>(1.0));

  BeladyPolicy belady;
  const SimResult belady_run = run_trace(t, k, belady, &costs);
  const OptResult opt = exact_opt(t, k, costs);
  EXPECT_EQ(static_cast<double>(belady_run.metrics.total_misses()), opt.cost)
      << "Belady must minimize total misses";
}

INSTANTIATE_TEST_SUITE_P(Seeds, BeladyOptimalityTest,
                         ::testing::Range<std::uint64_t>(1, 13));

TEST(Belady, MultiTenantTotalMissesStillMinimal) {
  for (std::uint64_t seed = 100; seed < 106; ++seed) {
    Rng rng(seed);
    const Trace t = random_uniform_trace(2, 4, 20, rng);
    std::vector<CostFunctionPtr> costs;
    costs.push_back(std::make_unique<MonomialCost>(1.0));
    costs.push_back(std::make_unique<MonomialCost>(1.0));
    BeladyPolicy belady;
    const SimResult run = run_trace(t, 3, belady, &costs);
    const OptResult opt = exact_opt(t, 3, costs);
    EXPECT_EQ(static_cast<double>(run.metrics.total_misses()), opt.cost);
  }
}

}  // namespace
}  // namespace ccc
