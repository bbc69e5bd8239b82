// Unit tests for workload generators (trace/generators.hpp).
#include "trace/generators.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <string>
#include <vector>

namespace ccc {
namespace {

TEST(UniformPages, StaysInUniverseAndIsDeterministic) {
  UniformPages gen(10);
  Rng a(1), b(1);
  auto g2 = gen.clone();
  for (int i = 0; i < 500; ++i) {
    const auto x = gen.next(a);
    EXPECT_LT(x, 10u);
    EXPECT_EQ(x, g2->next(b));
  }
}

TEST(ZipfPages, SkewOrdersFrequencies) {
  ZipfPages gen(50, 1.2);
  Rng rng(7);
  std::map<std::uint64_t, int> counts;
  for (int i = 0; i < 20000; ++i) ++counts[gen.next(rng)];
  // Rank 0 must dominate rank 10 which must dominate rank 40.
  EXPECT_GT(counts[0], counts[10]);
  EXPECT_GT(counts[10], counts[40]);
}

TEST(ZipfPages, ZeroSkewIsUniform) {
  ZipfPages gen(4, 0.0);
  Rng rng(7);
  std::map<std::uint64_t, int> counts;
  constexpr int kDraws = 40000;
  for (int i = 0; i < kDraws; ++i) ++counts[gen.next(rng)];
  for (const auto& [page, c] : counts) {
    (void)page;
    EXPECT_NEAR(c, kDraws / 4, 700);
  }
}

TEST(ScanPages, CyclesSequentially) {
  ScanPages gen(3);
  Rng rng(1);
  const std::uint64_t expected[] = {0, 1, 2, 0, 1, 2, 0};
  for (const std::uint64_t e : expected) EXPECT_EQ(gen.next(rng), e);
}

TEST(WorkingSetPages, HotPagesDominateWithinPhase) {
  WorkingSetPages gen(100, 5, 1000000, 0.95);
  Rng rng(3);
  int hot = 0;
  for (int i = 0; i < 10000; ++i)
    if (gen.next(rng) < 5) ++hot;
  EXPECT_GT(hot, 9000);  // ~95% hot + a few uniform draws landing hot
}

TEST(WorkingSetPages, PhaseShiftMovesHotSet) {
  WorkingSetPages gen(100, 10, 100, 1.0);
  Rng rng(3);
  std::map<std::uint64_t, int> first_phase, second_phase;
  for (int i = 0; i < 100; ++i) ++first_phase[gen.next(rng)];
  for (int i = 0; i < 100; ++i) ++second_phase[gen.next(rng)];
  // First phase draws only from [0,10); second from [5,15).
  for (const auto& [p, c] : first_phase) {
    (void)c;
    EXPECT_LT(p, 10u);
  }
  bool saw_shifted = false;
  for (const auto& [p, c] : second_phase) {
    (void)c;
    EXPECT_GE(p, 5u);
    EXPECT_LT(p, 15u);
    saw_shifted = saw_shifted || p >= 10;
  }
  EXPECT_TRUE(saw_shifted);
}

TEST(GenerateTrace, RespectsWeightsRoughly) {
  std::vector<TenantWorkload> tenants;
  tenants.push_back({std::make_unique<UniformPages>(10), 3.0});
  tenants.push_back({std::make_unique<UniformPages>(10), 1.0});
  Rng rng(11);
  const Trace trace = generate_trace(std::move(tenants), 20000, rng);
  const auto counts = trace.requests_per_tenant();
  EXPECT_NEAR(static_cast<double>(counts[0]), 15000.0, 500.0);
  EXPECT_NEAR(static_cast<double>(counts[1]), 5000.0, 500.0);
}

TEST(GenerateTrace, PagesAreNamespacedByTenant) {
  Rng rng(5);
  const Trace trace = random_uniform_trace(3, 4, 300, rng);
  for (const Request& r : trace) EXPECT_EQ(page_owner(r.page), r.tenant);
  EXPECT_LE(trace.distinct_pages(), 12u);
}

TEST(GenerateTrace, DeterministicGivenSeed) {
  Rng a(42), b(42);
  const Trace t1 = random_uniform_trace(2, 5, 100, a);
  const Trace t2 = random_uniform_trace(2, 5, 100, b);
  ASSERT_EQ(t1.size(), t2.size());
  for (std::size_t i = 0; i < t1.size(); ++i) EXPECT_EQ(t1[i], t2[i]);
}

TEST(ZipfTenantTrace, DeterministicGivenSeed) {
  const Trace t1 = zipf_tenant_trace(8, 32, 0.9, 2000, 7);
  const Trace t2 = zipf_tenant_trace(8, 32, 0.9, 2000, 7);
  const Trace other = zipf_tenant_trace(8, 32, 0.9, 2000, 8);
  ASSERT_EQ(t1.size(), 2000u);
  ASSERT_EQ(t2.size(), t1.size());
  ASSERT_EQ(other.size(), t1.size());
  std::size_t differing = 0;
  for (std::size_t i = 0; i < t1.size(); ++i) {
    EXPECT_EQ(t1[i], t2[i]);
    if (!(t1[i] == other[i])) ++differing;
  }
  EXPECT_GT(differing, 0u);
}

TEST(ZipfTenantTrace, EveryTenantDrawsSkewedPagesFromItsOwnUniverse) {
  const Trace trace = zipf_tenant_trace(4, 16, 1.1, 20000, 3);
  EXPECT_EQ(trace.num_tenants(), 4u);
  std::map<std::uint32_t, std::size_t> per_tenant;
  std::map<PageId, std::size_t> per_page;
  for (const Request& r : trace) {
    EXPECT_EQ(page_owner(r.page), r.tenant);
    ++per_tenant[r.tenant];
    ++per_page[r.page];
  }
  EXPECT_EQ(per_tenant.size(), 4u);
  for (const auto& [tenant, count] : per_tenant)
    EXPECT_GT(count, 4000u);  // equal rates: ~5000 each
  EXPECT_LE(per_page.size(), 64u);
  // Zipf(1.1): a tenant's hottest page outdraws a uniform share (1/16).
  std::size_t hottest = 0;
  for (const auto& [page, count] : per_page) hottest = std::max(hottest, count);
  EXPECT_GT(hottest, 20000u / 64u * 3u);
}

TEST(MarkovPages, FollowsRunsWhenProbabilityIsHigh) {
  // With follow probability 1 after the first draw, the stream walks the
  // fixed permutation cycle: consecutive draws must respect successor
  // structure (each page's successor is always the same page).
  MarkovPages gen(16, 1.0, 0.8, 42);
  Rng rng(1);
  std::uint64_t prev = gen.next(rng);
  std::map<std::uint64_t, std::uint64_t> successor_seen;
  for (int i = 0; i < 64; ++i) {
    const std::uint64_t cur = gen.next(rng);
    const auto it = successor_seen.find(prev);
    if (it != successor_seen.end()) {
      EXPECT_EQ(it->second, cur) << "cycle must be deterministic";
    }
    successor_seen[prev] = cur;
    prev = cur;
  }
}

TEST(MarkovPages, ZeroFollowIsPureZipf) {
  MarkovPages gen(50, 0.0, 1.2, 7);
  Rng rng(3);
  std::map<std::uint64_t, int> counts;
  for (int i = 0; i < 20000; ++i) ++counts[gen.next(rng)];
  EXPECT_GT(counts[0], counts[20]);
}

TEST(MarkovPages, RunsShortenReuseDistance) {
  // High follow probability produces long sequential runs → the stream
  // revisits pages in tight cycles, unlike the memoryless counterpart.
  const auto build = [](double follow) {
    std::vector<TenantWorkload> w;
    w.push_back({std::make_unique<MarkovPages>(64, follow, 0.5, 5), 1.0});
    Rng rng(9);
    return generate_trace(std::move(w), 4000, rng);
  };
  const TraceStats runs = compute_stats(build(0.95));
  const TraceStats memoryless = compute_stats(build(0.0));
  EXPECT_NE(runs.mean_reuse_distance, memoryless.mean_reuse_distance);
}

TEST(MarkovPages, ValidatesParameters) {
  EXPECT_THROW(MarkovPages(0, 0.5, 1.0, 1), std::invalid_argument);
  EXPECT_THROW(MarkovPages(8, 1.5, 1.0, 1), std::invalid_argument);
}

// ---- exactness of the O(1) draws ---------------------------------------

// The oracle: the literal sequential scan the tenant draw must reproduce.
std::size_t scan_pick(const std::vector<double>& weights, double u) {
  for (std::size_t i = 0; i < weights.size(); ++i) {
    u -= weights[i];
    if (u < 0.0) return i;
  }
  return weights.size() - 1;
}

// x moved by `steps` representable doubles (negative steps move down).
double ulps_away(double x, int steps) {
  const double toward = steps < 0 ? -std::numeric_limits<double>::infinity()
                                  : std::numeric_limits<double>::infinity();
  for (int s = 0; s < std::abs(steps); ++s) x = std::nextafter(x, toward);
  return x;
}

void expect_sampler_matches_scan(const std::vector<double>& weights) {
  const TenantSampler sampler(weights);
  double total = 0.0;
  std::vector<double> prefix;
  for (const double w : weights) prefix.push_back(total += w);
  ASSERT_EQ(sampler.total_weight(), total);  // same sum, bit for bit

  Rng rng(2024);
  for (int d = 0; d < 100'000; ++d) {
    const double u = rng.next_double() * total;
    ASSERT_EQ(sampler.pick(u), scan_pick(weights, u)) << "u=" << u;
  }
  // Draws at and around every bucket edge land in the rounding band (or
  // just outside it), where the answer must still be the scan's.
  for (const double edge : prefix) {
    for (int steps = -40; steps <= 40; ++steps) {
      const double u = ulps_away(edge, steps);
      if (u < 0.0 || u > total) continue;
      ASSERT_EQ(sampler.pick(u), scan_pick(weights, u))
          << "edge=" << edge << " steps=" << steps;
    }
  }
  EXPECT_EQ(sampler.pick(0.0), scan_pick(weights, 0.0));
  EXPECT_EQ(sampler.pick(total), scan_pick(weights, total));
}

TEST(TenantSampler, EqualWeightsMatchScan) {
  expect_sampler_matches_scan(std::vector<double>(256, 1.0));
  expect_sampler_matches_scan({1.0});
}

TEST(TenantSampler, IntegerWeightsMatchScan) {
  expect_sampler_matches_scan({1.0, 2.0, 4.0});
  std::vector<double> cycled;
  for (int i = 0; i < 99; ++i) cycled.push_back(std::ldexp(1.0, i % 3));
  expect_sampler_matches_scan(cycled);
}

TEST(TenantSampler, NonIntegerWeightsMatchScan) {
  Rng rng(17);
  std::vector<double> weights;
  for (int i = 0; i < 200; ++i) weights.push_back(rng.next_double(0.1, 5.1));
  expect_sampler_matches_scan(weights);
}

TEST(TenantSampler, WideExponentWeightsMatchScan) {
  Rng rng(23);
  std::vector<double> weights;
  for (int i = 0; i < 64; ++i)
    weights.push_back(std::ldexp(1.0 + rng.next_double(),
                                 static_cast<int>(rng.next_int(-20, 19))));
  weights.front() = std::ldexp(1.0, -20);
  weights.back() = std::ldexp(1.0, 20);
  expect_sampler_matches_scan(weights);
}

TEST(ZipfPages, InverseCdfIsLowerBound) {
  const std::pair<std::uint64_t, double> shapes[] = {
      {1, 0.5}, {3, 3.0}, {64, 0.9}, {64, 1.1}, {1000, 0.0}, {5000, 1.5}};
  for (const auto& [pages, skew] : shapes) {
    const ZipfPages gen(pages, skew);
    const std::vector<double>& cdf = gen.cdf();
    ASSERT_EQ(cdf.size(), pages);
    ASSERT_EQ(cdf.back(), 1.0);
    const auto lower_bound = [&cdf](double u) {
      return static_cast<std::uint64_t>(
          std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    };
    Rng rng(pages);
    for (int d = 0; d < 100'000; ++d) {
      const double u = rng.next_double();
      ASSERT_EQ(gen.inverse_cdf(u), lower_bound(u)) << "u=" << u;
    }
    for (const double c : cdf) {
      for (int steps = -1; steps <= 1; ++steps) {
        const double u = ulps_away(c, steps);
        if (u < 0.0 || u >= 1.0) continue;
        ASSERT_EQ(gen.inverse_cdf(u), lower_bound(u))
            << "pages=" << pages << " u=" << u;
      }
    }
    // next() is inverse_cdf of the draw.
    Rng a(5), b(5);
    ZipfPages drawing(pages, skew);
    for (int d = 0; d < 1000; ++d)
      ASSERT_EQ(drawing.next(a), gen.inverse_cdf(b.next_double()));
  }
}

// FNV-1a over (tenant, page) per request.
std::uint64_t trace_hash(const Trace& trace) {
  std::uint64_t h = 14695981039346656037ULL;
  for (const Request& r : trace) {
    h = (h ^ r.tenant) * 1099511628211ULL;
    h = (h ^ r.page) * 1099511628211ULL;
  }
  return h;
}

// Hashes recorded from the sequential-scan / binary-search generator this
// replaced: the O(1) draws must reproduce its traces bit for bit.
TEST(GenerateTrace, GoldenHashesOfBenchmarkShapes) {
  // The two benchmark shapes (256 tenants Zipf 0.9; 16 tenants Zipf 1.1).
  EXPECT_EQ(trace_hash(zipf_tenant_trace(256, 64, 0.9, 4'500'000, 1)),
            0x93a44bfba53ac3f5ULL);
  EXPECT_EQ(trace_hash(zipf_tenant_trace(16, 64, 1.1, 2'500'000, 1)),
            0x4152946d2340dca3ULL);
}

TEST(GenerateTrace, GoldenHashOfUnequalWeights) {
  std::vector<TenantWorkload> tenants;
  Rng weights(5);
  for (int i = 0; i < 50; ++i)
    tenants.push_back({std::make_unique<ZipfPages>(32, 0.7),
                       0.1 + 5.0 * weights.next_double()});
  Rng rng(3);
  EXPECT_EQ(trace_hash(generate_trace(std::move(tenants), 200'000, rng)),
            0x11f86cc7d63bc039ULL);
}

TEST(Generators, RejectBadParameters) {
  EXPECT_THROW(UniformPages(0), std::invalid_argument);
  EXPECT_THROW(ZipfPages(0, 1.0), std::invalid_argument);
  EXPECT_THROW(ZipfPages(5, -1.0), std::invalid_argument);
  EXPECT_THROW(ScanPages(0), std::invalid_argument);
  EXPECT_THROW(WorkingSetPages(10, 0, 5, 0.5), std::invalid_argument);
  EXPECT_THROW(WorkingSetPages(10, 11, 5, 0.5), std::invalid_argument);
  EXPECT_THROW(WorkingSetPages(10, 5, 0, 0.5), std::invalid_argument);
  EXPECT_THROW(WorkingSetPages(10, 5, 5, 1.5), std::invalid_argument);
  Rng rng(1);
  EXPECT_THROW((void)generate_trace({}, 10, rng), std::invalid_argument);
  // Non-positive and non-finite weights, and weights whose sum overflows.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kMax = std::numeric_limits<double>::max();
  for (const std::vector<double>& weights :
       {std::vector<double>{1.0, 0.0}, std::vector<double>{1.0, -2.0},
        std::vector<double>{1.0, kInf},
        std::vector<double>{std::numeric_limits<double>::quiet_NaN()},
        std::vector<double>{kMax, kMax}}) {
    std::vector<TenantWorkload> tenants;
    for (const double w : weights)
      tenants.push_back({std::make_unique<UniformPages>(4), w});
    EXPECT_THROW((void)generate_trace(std::move(tenants), 10, rng),
                 std::invalid_argument);
    EXPECT_THROW((void)TenantSampler(weights), std::invalid_argument);
  }
  EXPECT_THROW((void)TenantSampler(std::vector<double>{}),
               std::invalid_argument);
}

}  // namespace
}  // namespace ccc
