// Tests for the O(log k) cross-tenant eviction index of ConvexCachingPolicy:
// randomized differential replay against the literal Fig. 3 transcription
// (NaiveConvexCachingPolicy), tie-breaking, window-rollover rebuilds,
// the rebuild repair for non-convex costs, Landlord as Fig. 3 at β = 1,
// the one residency table (session vs standalone replay), compaction, the
// hit path (no push unless a key falls), and the perf counters surfaced
// through SimResult.
//
// Every differential against the naive oracle uses integer-valued
// marginals, so both implementations compute budgets exactly in floating
// point and victim sequences must match bit for bit. The session-vs-
// standalone replay runs one implementation twice and needs no such
// restriction.
#include <algorithm>
#include <initializer_list>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/convex_caching.hpp"
#include "core/naive_convex_caching.hpp"
#include "cost/combinators.hpp"
#include "cost/monomial.hpp"
#include "exp/policy_factory.hpp"
#include "policies/landlord.hpp"
#include "sim/simulator.hpp"
#include "trace/generators.hpp"

namespace ccc {
namespace {

/// Mixed multi-tenant workload: tenant t cycles through Zipf, sequential
/// scan and shifting-working-set generators, with unequal request rates.
Trace mixed_trace(std::uint32_t tenants, std::uint64_t pages_per_tenant,
                  std::size_t length, std::uint64_t seed) {
  std::vector<TenantWorkload> workloads;
  for (std::uint32_t t = 0; t < tenants; ++t) {
    PageGeneratorPtr pages;
    switch (t % 3) {
      case 0:
        pages = std::make_unique<ZipfPages>(pages_per_tenant, 0.8);
        break;
      case 1:
        pages = std::make_unique<ScanPages>(pages_per_tenant);
        break;
      default:
        pages = std::make_unique<WorkingSetPages>(
            pages_per_tenant, pages_per_tenant / 2 + 1, 50, 0.8);
        break;
    }
    workloads.push_back({std::move(pages), 1.0 + 0.5 * (t % 4)});
  }
  Rng rng(seed);
  return generate_trace(std::move(workloads), length, rng);
}

/// Per-tenant costs with integer marginals: rotate through quadratic,
/// linear and cubic monomials with integer weights.
std::vector<CostFunctionPtr> integer_costs(std::uint32_t tenants) {
  std::vector<CostFunctionPtr> costs;
  for (std::uint32_t t = 0; t < tenants; ++t) {
    const double weight = 1.0 + static_cast<double>(t % 5);
    const double beta = 1.0 + static_cast<double>(t % 3);
    costs.push_back(std::make_unique<MonomialCost>(beta, weight));
  }
  return costs;
}

void expect_identical_decisions(const SimResult& a, const SimResult& b,
                                const std::string& what) {
  ASSERT_EQ(a.events.size(), b.events.size()) << what;
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    ASSERT_EQ(a.events[i].hit, b.events[i].hit) << what << " step " << i;
    ASSERT_EQ(a.events[i].victim, b.events[i].victim)
        << what << " step " << i;
  }
}

// ---------------------------------------------------------------------------
// Differential replay: global heap vs naive oracle on randomized mixed
// traces.

struct DiffCase {
  std::uint64_t seed;
  std::uint32_t tenants;
  std::uint64_t pages_per_tenant;
  std::size_t k;
  std::size_t length;

  friend std::ostream& operator<<(std::ostream& os, const DiffCase& c) {
    return os << "seed" << c.seed << "_n" << c.tenants << "_p"
              << c.pages_per_tenant << "_k" << c.k << "_len" << c.length;
  }
};

class EvictionIndexDifferentialTest
    : public ::testing::TestWithParam<DiffCase> {};

TEST_P(EvictionIndexDifferentialTest, GlobalScanAndNaiveAgree) {
  const DiffCase c = GetParam();
  const Trace trace =
      mixed_trace(c.tenants, c.pages_per_tenant, c.length, c.seed);
  const auto costs = integer_costs(c.tenants);

  ConvexCachingPolicy global_index;
  NaiveConvexCachingPolicy naive;
  SimOptions options;
  options.record_events = true;
  const SimResult g = run_trace(trace, c.k, global_index, &costs, options);
  const SimResult n = run_trace(trace, c.k, naive, &costs, options);
  expect_identical_decisions(g, n, "global vs naive");
}

INSTANTIATE_TEST_SUITE_P(
    Grid, EvictionIndexDifferentialTest,
    ::testing::Values(DiffCase{11, 3, 8, 6, 1500},
                      DiffCase{12, 8, 6, 12, 2000},
                      DiffCase{13, 16, 5, 24, 2500},
                      DiffCase{14, 32, 4, 40, 3000},
                      DiffCase{15, 64, 3, 48, 3000},
                      DiffCase{16, 5, 12, 8, 2000},
                      DiffCase{17, 24, 4, 16, 2500}));

// Eviction-maximal churn: a universe far larger than k makes nearly every
// request an insert+evict pair, so the policies' flat residency tables run
// a backward-shift erase per step while sitting at their load limit. Any
// probe chain corrupted by a shift (or a slot leaked across rehash) breaks
// residency and therefore the victim sequence — which both implementations
// must still agree on exactly.
TEST(EvictionIndexDifferential, EraseHeavyChurnAgreesAcrossIndexes) {
  for (const std::uint64_t seed : {41u, 42u, 43u}) {
    const Trace trace = mixed_trace(6, 256, 4000, seed);
    const auto costs = integer_costs(6);
    ConvexCachingPolicy global_index;
    NaiveConvexCachingPolicy naive;
    SimOptions options;
    options.record_events = true;
    const SimResult g = run_trace(trace, 8, global_index, &costs, options);
    const SimResult n = run_trace(trace, 8, naive, &costs, options);
    expect_identical_decisions(g, n, "churn global vs naive");
    // At capacity 8 over a 1536-page universe, misses dominate: the churn
    // premise (an eviction on nearly every step) must actually hold.
    EXPECT_GT(g.metrics.total_evictions(), trace.size() / 2);
  }
}

// The §2.5 discrete-marginal mode on non-convex costs shrinks tenant bumps
// (a step cost's marginal falls back to 0 after each jump; sqrt marginals
// decrease monotonically), driving the global index through its rebuild
// repair. The naive oracle applies each bump to every page of the
// tenant eagerly, so agreement proves the repair is complete.
TEST(EvictionIndexDifferential, NonConvexCostsAgreeAcrossIndexes) {
  for (const std::uint64_t seed : {21u, 22u, 23u}) {
    const Trace trace = mixed_trace(6, 6, 2500, seed);
    std::vector<CostFunctionPtr> costs;
    for (std::uint32_t t = 0; t < 6; ++t) {
      if (t % 2 == 0)
        costs.push_back(std::make_unique<StepCost>(3.0 + t, 8.0));
      else
        costs.push_back(std::make_unique<MonomialCost>(2.0, 1.0 + t));
    }
    ConvexCachingOptions discrete;
    discrete.derivative = DerivativeMode::kDiscreteMarginal;

    ConvexCachingPolicy global_index(discrete);
    NaiveConvexCachingPolicy naive(discrete);
    SimOptions options;
    options.record_events = true;
    const SimResult g = run_trace(trace, 10, global_index, &costs, options);
    const SimResult n = run_trace(trace, 10, naive, &costs, options);
    expect_identical_decisions(g, n, "non-convex global vs naive");
    // The shrinking bumps really drove the index through its rebuild.
    EXPECT_GT(g.perf.index_rebuilds, 0u) << "seed " << seed;
  }
}

// Landlord is Fig. 3 at β = 1: LandlordPolicy(w) must make the literal
// transcription's decisions on MonomialCost(1, w_i). Integer weights keep
// every credit exact, so the victim sequences match bit for bit.
TEST(EvictionIndexDifferential, LandlordMatchesNaiveFig3AtBetaOne) {
  constexpr std::uint32_t kTenants = 5;
  for (const std::uint64_t seed : {31u, 32u, 33u, 34u}) {
    const Trace trace = mixed_trace(kTenants, 8, 3000, seed);
    std::vector<double> weights;
    std::vector<CostFunctionPtr> costs;
    for (std::uint32_t t = 0; t < kTenants; ++t) {
      weights.push_back(1.0 + static_cast<double>((3 * t + seed) % 7));
      costs.push_back(std::make_unique<MonomialCost>(1.0, weights.back()));
    }
    LandlordPolicy landlord(weights);
    NaiveConvexCachingPolicy naive;
    SimOptions options;
    options.record_events = true;
    const SimResult l = run_trace(trace, 12, landlord, nullptr, options);
    const SimResult n = run_trace(trace, 12, naive, &costs, options);
    expect_identical_decisions(l, n, "landlord vs naive");
    EXPECT_GT(l.metrics.total_evictions(), trace.size() / 10)
        << "seed " << seed;
  }
}

// ---------------------------------------------------------------------------
// One residency table: under a session the policy's table is the cache. The
// same policy driven standalone — residency in the caller's own bitmap, the
// way perfbench's policy rung drives it — must make the same decisions and
// keep the same per-tenant books, through a shrink and invalidations too.

/// Drives a policy without a session: an external bitmap decides hits and
/// when to evict; the policy keeps its own table to itself.
class BitmapDriver {
 public:
  BitmapDriver(ReplacementPolicy& policy, std::size_t capacity,
               std::uint32_t tenants, std::uint64_t pages_per_tenant,
               const std::vector<CostFunctionPtr>* costs)
      : metrics(tenants),
        policy_(policy),
        capacity_(capacity),
        pages_per_tenant_(pages_per_tenant),
        bitmap_(tenants * pages_per_tenant, 0) {
    PolicyContext ctx;
    ctx.capacity = capacity;
    ctx.num_tenants = tenants;
    ctx.costs = costs;
    ctx.seed = 1;
    policy_.reset(ctx);
  }

  /// One request; returns the victim, if any.
  std::optional<PageId> step(const Request& request) {
    std::optional<PageId> victim;
    if (bit(request.page) != 0) {
      metrics.record_hit(request.tenant);
      policy_.on_hit(request, time_);
    } else {
      metrics.record_miss(request.tenant);
      if (size_ >= capacity_) {
        victim = policy_.choose_victim(request, time_);
        evict(*victim);
      }
      bit(request.page) = 1;
      ++size_;
      policy_.on_insert(request, time_);
    }
    ++time_;
    return victim;
  }

  void evict(PageId page) {
    bit(page) = 0;
    --size_;
    metrics.record_eviction(page_owner(page));
    policy_.on_evict(page, page_owner(page), time_);
  }

  void shrink(std::size_t capacity) {
    capacity_ = capacity;
    while (size_ > capacity_)
      evict(policy_.choose_victim(Request{0, 0}, time_));
  }

  [[nodiscard]] std::vector<PageId> resident() const {
    std::vector<PageId> pages;
    for (std::size_t i = 0; i < bitmap_.size(); ++i)
      if (bitmap_[i] != 0)
        pages.push_back(make_page(static_cast<TenantId>(i / pages_per_tenant_),
                                  i % pages_per_tenant_));
    std::sort(pages.begin(), pages.end());
    return pages;
  }

  Metrics metrics;

 private:
  std::uint8_t& bit(PageId page) {
    return bitmap_[page_owner(page) * pages_per_tenant_ + page_local(page)];
  }

  ReplacementPolicy& policy_;
  std::size_t capacity_;
  std::uint64_t pages_per_tenant_;
  std::vector<std::uint8_t> bitmap_;
  std::size_t size_ = 0;
  TimeStep time_ = 0;
};

std::vector<PageId> resident_pages(const SimulatorSession& session) {
  std::vector<PageId> pages;
  for (const auto& [page, record] : session.cache().pages())
    pages.push_back(page);
  std::sort(pages.begin(), pages.end());
  return pages;
}

/// Replays `trace` through a session over `in_session` and standalone over
/// `standalone` (a second instance of the same configuration), shrinking
/// the cache a third of the way in and invalidating the previous request's
/// page every 97 steps over the last third.
void expect_session_matches_standalone(
    ReplacementPolicy& in_session, ReplacementPolicy& standalone,
    const Trace& trace, std::size_t k, std::uint64_t pages_per_tenant,
    const std::vector<CostFunctionPtr>* costs) {
  const std::uint32_t tenants = trace.num_tenants();
  SimulatorSession session(k, tenants, in_session, costs);
  ASSERT_EQ(&session.cache(), in_session.residency())
      << "the session must read the policy's table, not keep a second one";
  BitmapDriver driver(standalone, k, tenants, pages_per_tenant, costs);
  const std::size_t n = trace.size();
  std::size_t victims = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (i == n / 3) {
      session.resize(k - k / 3);
      driver.shrink(k - k / 3);
      ASSERT_EQ(resident_pages(session), driver.resident()) << "after shrink";
    }
    if (i > 2 * n / 3 && i % 97 == 0) {
      session.invalidate(trace[i - 1].page);
      driver.evict(trace[i - 1].page);
    }
    const StepEvent event = session.step(trace[i]);
    ASSERT_EQ(event.victim, driver.step(trace[i])) << "step " << i;
    if (event.victim.has_value()) ++victims;
  }
  EXPECT_GT(victims, n / 10);
  EXPECT_EQ(resident_pages(session), driver.resident());
  for (TenantId t = 0; t < tenants; ++t) {
    EXPECT_EQ(session.metrics().hits(t), driver.metrics.hits(t)) << t;
    EXPECT_EQ(session.metrics().misses(t), driver.metrics.misses(t)) << t;
    EXPECT_EQ(session.metrics().evictions(t), driver.metrics.evictions(t))
        << t;
  }
  EXPECT_EQ(in_session.perf_counters().heap_pops,
            standalone.perf_counters().heap_pops);
  EXPECT_EQ(in_session.perf_counters().index_rebuilds,
            standalone.perf_counters().index_rebuilds);
}

TEST(OneResidencyTable, SessionMatchesStandaloneConvexCaching) {
  constexpr std::uint32_t kTenants = 5;
  constexpr std::uint64_t kPages = 8;
  std::vector<CostFunctionPtr> sqrt_costs;
  for (std::uint32_t t = 0; t < kTenants; ++t)
    sqrt_costs.push_back(std::make_unique<SqrtCost>(1.0 + t));
  const auto convex_costs = integer_costs(kTenants);
  struct Config {
    const char* name;
    const std::vector<CostFunctionPtr>* costs;
    ConvexCachingOptions options;
  };
  ConvexCachingOptions discrete;
  discrete.derivative = DerivativeMode::kDiscreteMarginal;
  ConvexCachingOptions windowed;
  windowed.window_length = 400;
  ConvexCachingOptions no_debit;
  no_debit.debit_survivors = false;
  ConvexCachingOptions no_bump;
  no_bump.bump_victim_tenant = false;
  const Config configs[] = {
      {"analytic", &convex_costs, {}},
      {"analytic-sqrt", &sqrt_costs, {}},
      {"discrete-sqrt", &sqrt_costs, discrete},
      {"windowed", &convex_costs, windowed},
      {"no-debit", &convex_costs, no_debit},
      {"no-bump", &sqrt_costs, no_bump},
  };
  for (const Config& config : configs)
    for (const std::uint64_t seed : {41u, 42u}) {
      SCOPED_TRACE(std::string(config.name) + " seed " +
                   std::to_string(seed));
      const Trace trace = mixed_trace(kTenants, kPages, 3000, seed);
      ConvexCachingPolicy in_session(config.options);
      ConvexCachingPolicy standalone(config.options);
      expect_session_matches_standalone(in_session, standalone, trace, 12,
                                        kPages, config.costs);
    }
}

TEST(OneResidencyTable, SessionMatchesStandaloneLandlord) {
  constexpr std::uint32_t kTenants = 5;
  constexpr std::uint64_t kPages = 8;
  const std::vector<double> weights = {1.0, 3.0, 0.5, 2.25, 7.0};
  for (const std::uint64_t seed : {43u, 44u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const Trace trace = mixed_trace(kTenants, kPages, 3000, seed);
    LandlordPolicy in_session(weights);
    LandlordPolicy standalone(weights);
    expect_session_matches_standalone(in_session, standalone, trace, 12,
                                      kPages, nullptr);
  }
}

// ---------------------------------------------------------------------------
// Tie-breaking: equal effective budgets must resolve to the lowest page id,
// across tenants, in the global index and the naive oracle alike.

TEST(EvictionIndexTieBreak, EqualBudgetsEvictLowestPageId) {
  // Two linear tenants with identical weight: every budget is exactly 3.
  std::vector<CostFunctionPtr> costs;
  costs.push_back(std::make_unique<MonomialCost>(1.0, 3.0));
  costs.push_back(std::make_unique<MonomialCost>(1.0, 3.0));
  ConvexCachingPolicy global_index;
  NaiveConvexCachingPolicy naive;
  for (ReplacementPolicy* policy :
       std::initializer_list<ReplacementPolicy*>{&global_index, &naive}) {
    SimulatorSession session(3, 2, *policy, &costs);
    // Raw page ids chosen so the lowest id belongs to the tenant touched
    // in the middle — neither insertion order nor tenant order can fake
    // the right answer.
    session.step({0, 20});
    session.step({1, 10});
    session.step({0, 30});
    // All three budgets are 3; the victim must be the globally lowest page
    // id — tenant 1's page 10.
    const StepEvent e = session.step({1, 40});
    ASSERT_TRUE(e.victim.has_value()) << policy->name();
    EXPECT_EQ(*e.victim, 10u) << policy->name();
  }
}

TEST(EvictionIndexTieBreak, TieAfterRefreshUsesCurrentBudgets) {
  // A page refreshed by a hit must participate in ties with its *new*
  // budget and id ordering, not its stale posting.
  std::vector<CostFunctionPtr> costs;
  costs.push_back(std::make_unique<MonomialCost>(1.0, 2.0));
  ConvexCachingPolicy global_index;
  NaiveConvexCachingPolicy naive;
  for (ReplacementPolicy* policy :
       std::initializer_list<ReplacementPolicy*>{&global_index, &naive}) {
    SimulatorSession session(2, 1, *policy, &costs);
    session.step({0, 4});
    session.step({0, 1});
    session.step({0, 4});  // hit: re-posts page 4 at the same budget (2)
    // Tie between pages 1 and 4 at budget 2 → page 1 goes.
    const StepEvent e = session.step({0, 9});
    ASSERT_TRUE(e.victim.has_value()) << policy->name();
    EXPECT_EQ(*e.victim, 1u) << policy->name();
  }
}

// ---------------------------------------------------------------------------
// Window rollover: the index must be rebuilt when budgets re-base.

TEST(EvictionIndexWindow, GlobalAndNaiveAgreeAcrossBoundaries) {
  for (const std::size_t window : {7u, 32u, 100u}) {
    const Trace trace = mixed_trace(8, 6, 2000, /*seed=*/31 + window);
    const auto costs = integer_costs(8);
    ConvexCachingOptions windowed;
    windowed.window_length = window;
    ConvexCachingPolicy global_index(windowed);
    NaiveConvexCachingPolicy naive(windowed);
    SimOptions options;
    options.record_events = true;
    const SimResult g = run_trace(trace, 12, global_index, &costs, options);
    const SimResult n = run_trace(trace, 12, naive, &costs, options);
    expect_identical_decisions(g, n, "window=" + std::to_string(window));
  }
}

TEST(EvictionIndexWindow, RollRebuildsIndexAndRebasesBudgets) {
  std::vector<CostFunctionPtr> costs;
  costs.push_back(std::make_unique<MonomialCost>(2.0));  // f' = 2x
  ConvexCachingOptions options;
  options.window_length = 4;
  ConvexCachingPolicy policy(options);
  SimulatorSession session(2, 1, policy, &costs);
  for (const int p : {1, 2, 3, 4}) session.step({0, static_cast<PageId>(p)});
  // t=4 rolls the window: the eviction index must be rebuilt on re-based
  // budgets (see ConvexCaching.WindowedMissCountsReset for the arithmetic).
  session.step({0, 5});
  EXPECT_DOUBLE_EQ(policy.budget(5), 4.0);
  EXPECT_DOUBLE_EQ(policy.budget(4), 2.0);
  EXPECT_GE(policy.perf_counters().index_rebuilds, 1u);
}

// ---------------------------------------------------------------------------
// Index hygiene and counters.

TEST(EvictionIndexCompaction, HitHeavyStreamStaysBounded) {
  // Capacity 16 over an 18-page universe: hits dominate. Concave marginals
  // with the bump ablation off make a tenant's re-freeze value *fall* after
  // each of its evictions, so the next hit on every resident page posts
  // eagerly and leaves its older postings dead, while only evictions drain
  // them — compaction must keep the index proportional to the resident
  // set, not the request count.
  std::vector<CostFunctionPtr> costs;
  costs.push_back(std::make_unique<SqrtCost>(1.0));
  ConvexCachingOptions no_bump;
  no_bump.bump_victim_tenant = false;
  Rng rng(99);
  const Trace trace = random_uniform_trace(1, 18, 50'000, rng);
  ConvexCachingPolicy policy(no_bump);
  const SimResult result = run_trace(trace, 16, policy, &costs);
  EXPECT_GT(result.perf.index_rebuilds, 0u);
  EXPECT_LE(policy.index_size(), 128u);
  EXPECT_EQ(result.metrics.total_hits() + result.metrics.total_misses(),
            trace.size());
}

// ---------------------------------------------------------------------------
// The hit path: a hit stores the re-frozen key and posts nothing unless the
// key fell.

TEST(EvictionIndexHitPath, HitsNeverPush) {
  // Convex costs: keys only rise between touches, so after warm-up a
  // hit-only stream (every page resident, no evictions) leaves the index
  // exactly as it was — even right after evictions moved every re-freeze
  // value (the first pass below re-freezes raised keys).
  const auto costs = integer_costs(4);
  ConvexCachingPolicy policy;
  SimulatorSession session(16, 4, policy, &costs);
  const Trace warmup = mixed_trace(4, 8, 2000, /*seed=*/5);
  for (std::size_t i = 0; i < warmup.size(); ++i) session.step(warmup[i]);
  ASSERT_GT(session.metrics().total_evictions(), 0u);
  std::vector<Request> resident;
  for (const auto& [page, record] : session.cache().pages())
    resident.push_back({record.tenant, page});
  const std::size_t postings = policy.index_size();
  for (int pass = 0; pass < 3; ++pass)
    for (const Request& r : resident) {
      ASSERT_TRUE(session.step(r).hit);
      ASSERT_EQ(policy.index_size(), postings) << "pass " << pass;
    }
}

TEST(EvictionIndexHitPath, FallingKeysPostEagerlyAndMatchNaive) {
  // §2.5 step costs with the bump ablation off: a tenant's marginal
  // f(m+1) − f(m) drops back to 0 after each jump, so the hit that follows
  // on each of its resident pages freezes a *lower* key — the one hit-path
  // branch that must push, since the page's old postings now over-estimate.
  // A hit that grows the index took that branch. Marginals are integers,
  // so the naive oracle must agree on every victim, bit for bit.
  constexpr std::uint32_t kTenants = 3;
  std::vector<CostFunctionPtr> costs;
  for (std::uint32_t t = 0; t < kTenants; ++t)
    costs.push_back(std::make_unique<StepCost>(3.0 + t, 8.0));
  ConvexCachingOptions options;
  options.derivative = DerivativeMode::kDiscreteMarginal;
  options.bump_victim_tenant = false;
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    Rng rng(seed);
    const Trace trace = random_uniform_trace(kTenants, 10, 5000, rng);
    ConvexCachingPolicy global_index(options);
    NaiveConvexCachingPolicy naive(options);
    SimulatorSession g(24, kTenants, global_index, &costs);
    SimulatorSession n(24, kTenants, naive, &costs);
    std::size_t eager_posts = 0;
    for (std::size_t i = 0; i < trace.size(); ++i) {
      const std::size_t before = global_index.index_size();
      const StepEvent eg = g.step(trace[i]);
      const StepEvent en = n.step(trace[i]);
      ASSERT_EQ(eg.hit, en.hit) << "seed " << seed << " step " << i;
      ASSERT_EQ(eg.victim, en.victim) << "seed " << seed << " step " << i;
      if (eg.hit && global_index.index_size() > before) ++eager_posts;
    }
    EXPECT_GT(eager_posts, 0u) << "seed " << seed;
  }
}

TEST(EvictionIndexCounters, RunTraceFillsPerfCounters) {
  const Trace trace = mixed_trace(4, 8, 5000, /*seed=*/7);
  const auto costs = integer_costs(4);
  ConvexCachingPolicy policy;
  const SimResult result = run_trace(trace, 10, policy, &costs);
  EXPECT_EQ(result.perf.requests, trace.size());
  EXPECT_EQ(result.perf.evictions, result.metrics.total_evictions());
  EXPECT_GT(result.perf.evictions, 0u);
  EXPECT_GT(result.perf.heap_pops, 0u);
  EXPECT_GT(result.perf.stale_skips, 0u);  // lazy invalidation at work
  EXPECT_GT(result.perf.wall_seconds, 0.0);
  EXPECT_GT(result.perf.ns_per_request(), 0.0);
  EXPECT_GT(result.perf.seconds_per_million(), 0.0);
  EXPECT_GT(result.perf.stale_skips_per_eviction(), 0.0);
}

TEST(EvictionIndexCounters, CostObliviousPoliciesReportZeroIndexWork) {
  const Trace trace = mixed_trace(2, 8, 500, /*seed=*/8);
  const auto policy = make_policy("lru");
  const SimResult result = run_trace(trace, 6, *policy, nullptr);
  EXPECT_EQ(result.perf.requests, trace.size());
  EXPECT_EQ(result.perf.heap_pops, 0u);
  EXPECT_EQ(result.perf.stale_skips, 0u);
}

}  // namespace
}  // namespace ccc
