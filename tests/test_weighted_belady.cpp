// Tests for the offline weighted-Belady heuristic
// (offline/weighted_belady.hpp).
#include "offline/weighted_belady.hpp"

#include <gtest/gtest.h>

#include "cost/monomial.hpp"
#include "sim/simulator.hpp"
#include "trace/generators.hpp"

namespace ccc {
namespace {

TEST(WeightedBelady, UnitWeightsBehaveLikeBelady) {
  Rng rng(41);
  const Trace t = random_uniform_trace(2, 6, 300, rng);
  WeightedBeladyPolicy weighted({1.0, 1.0});
  BeladyPolicy plain;
  const SimResult a = run_trace(t, 4, weighted, nullptr);
  const SimResult b = run_trace(t, 4, plain, nullptr);
  // Same scoring up to tie-breaking: total misses must match exactly for
  // unit weights (both evict a furthest-future page; any choice among
  // furthest pages yields the same miss count for Belady's argument).
  EXPECT_EQ(a.metrics.total_misses(), b.metrics.total_misses());
}

TEST(WeightedBelady, HeavyTenantIsProtected) {
  // Tenant 1 has weight 100: its pages should essentially never be evicted
  // while tenant 0 pages are available.
  WeightedBeladyPolicy policy({1.0, 100.0});
  Trace t(2);
  // Interleave two working sets that overflow k=3 together.
  for (int round = 0; round < 20; ++round) {
    t.append(0, make_page(0, static_cast<PageId>(round % 2)));
    t.append(1, make_page(1, static_cast<PageId>(round % 2)));
  }
  const SimResult run = run_trace(t, 3, policy, nullptr);
  EXPECT_EQ(run.metrics.misses(1), 2u) << "heavy tenant only cold-misses";
  EXPECT_GT(run.metrics.misses(0), 10u);
}

TEST(WeightedBelady, ValidatesWeights) {
  EXPECT_THROW(WeightedBeladyPolicy({}), std::invalid_argument);
  EXPECT_THROW(WeightedBeladyPolicy({1.0, -2.0}), std::invalid_argument);
  WeightedBeladyPolicy policy({1.0});  // one weight, two tenants:
  Trace t(2);
  t.append(0, make_page(0, 0));
  t.append(1, make_page(1, 0));
  EXPECT_THROW((void)run_trace(t, 2, policy, nullptr), std::invalid_argument);
}

TEST(IteratedWeightedBelady, NeverWorseThanPlainBeladyCost) {
  for (std::uint64_t seed = 81; seed < 87; ++seed) {
    Rng rng(seed);
    const Trace t = random_uniform_trace(2, 5, 200, rng);
    std::vector<CostFunctionPtr> costs;
    costs.push_back(std::make_unique<MonomialCost>(1.0));
    costs.push_back(std::make_unique<MonomialCost>(3.0));
    BeladyPolicy belady;
    const SimResult plain = run_trace(t, 3, belady, &costs);
    const double plain_cost = total_cost(plain.metrics.miss_vector(), costs);
    const OptResult iterated = iterated_weighted_belady(t, 3, costs);
    // Iteration starts from unit weights (= Belady) and keeps the best.
    EXPECT_LE(iterated.cost, plain_cost + 1e-9) << "seed " << seed;
  }
}

TEST(IteratedWeightedBelady, ReturnsMissVectorMatchingCost) {
  Rng rng(88);
  const Trace t = random_uniform_trace(2, 5, 150, rng);
  std::vector<CostFunctionPtr> costs;
  costs.push_back(std::make_unique<MonomialCost>(2.0));
  costs.push_back(std::make_unique<MonomialCost>(2.0, 3.0));
  const OptResult r = iterated_weighted_belady(t, 3, costs);
  EXPECT_DOUBLE_EQ(r.cost, total_cost(r.misses, costs));
}

}  // namespace
}  // namespace ccc
