// Tests for the src/audit runtime verification layer.
//
// Two halves:
//  - Clean runs: the auditor attached to honest ConvexCachingPolicy runs
//    across cost families, derivative modes and window modes must report zero
//    violations while actually exercising every check (positive counters).
//  - Mutation runs: AuditTestPeer (a friend of ConvexCachingPolicy)
//    corrupts one piece of internal state at a time, and the matching
//    audit — and only an expected one — must fire. A check that cannot be
//    made to fail verifies nothing.
#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <ostream>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "audit/audit.hpp"
#include "core/convex_caching.hpp"
#include "cost/combinators.hpp"
#include "cost/monomial.hpp"
#include "cost/piecewise_linear.hpp"
#include "obs/observer.hpp"
#include "sim/simulator.hpp"
#include "trace/generators.hpp"

namespace ccc {

/// White-box corruption hooks for the mutation tests. Each static method
/// breaks exactly one internal invariant of ConvexCachingPolicy so the
/// corresponding audit can be proven to fire.
struct AuditTestPeer {
  static void shift_offset(ConvexCachingPolicy& p, double delta) {
    p.offset_ += delta;
  }
  static void shift_bump(ConvexCachingPolicy& p, TenantId tenant,
                         double delta) {
    p.tenant_bump_[tenant] += delta;
  }
  static void shift_key(ConvexCachingPolicy& p, PageId page, double delta) {
    p.residency_.pages().at(page).key += delta;
  }
  static void add_tenant_evictions(ConvexCachingPolicy& p, TenantId tenant,
                                   std::uint64_t delta) {
    p.evictions_[tenant] += delta;
  }
  static void shrink_capacity(ConvexCachingPolicy& p, std::size_t capacity) {
    p.residency_.set_capacity(capacity);
  }
  static void set_owner(ConvexCachingPolicy& p, PageId page, TenantId tenant) {
    p.residency_.pages().at(page).tenant = tenant;
  }
  static void clear_global_heap(ConvexCachingPolicy& p) {
    p.global_ = p.empty_heap();
  }
  static void flood_global_heap(ConvexCachingPolicy& p, std::size_t count) {
    // Dead postings: page ids far outside any trace universe, so every one
    // fails the residency lookup and only the compaction bound can object.
    for (std::size_t i = 0; i < count; ++i)
      p.global_.push(ConvexCachingPolicy::IndexEntry{
          1e18, PageId{1'000'000'000} + i, 0});
  }
};

namespace {

std::vector<CostFunctionPtr> monomial_costs(std::uint32_t tenants) {
  std::vector<CostFunctionPtr> costs;
  for (std::uint32_t t = 0; t < tenants; ++t)
    costs.push_back(std::make_unique<MonomialCost>(
        1.0 + static_cast<double>(t % 3), 1.0 + static_cast<double>(t % 5)));
  return costs;
}

std::vector<CostFunctionPtr> sla_costs(std::uint32_t tenants) {
  std::vector<CostFunctionPtr> costs;
  for (std::uint32_t t = 0; t < tenants; ++t)
    costs.push_back(std::make_unique<PiecewiseLinearCost>(
        PiecewiseLinearCost::sla(5.0 + t, 2.0 + t)));
  return costs;
}

std::vector<CostFunctionPtr> nonconvex_costs(std::uint32_t tenants) {
  std::vector<CostFunctionPtr> costs;
  for (std::uint32_t t = 0; t < tenants; ++t) {
    if (t % 2 == 0)
      costs.push_back(std::make_unique<StepCost>(3.0 + t, 8.0));
    else
      costs.push_back(std::make_unique<SqrtCost>(2.0 + t));
  }
  return costs;
}

Trace zipf_trace(std::uint32_t tenants, std::uint64_t pages_per_tenant,
                 std::size_t length, std::uint64_t seed) {
  std::vector<TenantWorkload> workloads;
  for (std::uint32_t t = 0; t < tenants; ++t)
    workloads.push_back(
        {std::make_unique<ZipfPages>(pages_per_tenant, 0.8), 1.0 + 0.3 * t});
  Rng rng(seed);
  return generate_trace(std::move(workloads), length, rng);
}

bool fired(const AuditReport& report, const std::string& check) {
  return std::any_of(
      report.failures.begin(), report.failures.end(),
      [&](const AuditViolation& v) { return v.check == check; });
}

/// Session + auditor wired together, cache pre-filled past its capacity so
/// budgets, postings and offsets are all non-trivial before a test corrupts
/// anything.
struct Rig {
  explicit Rig(ConvexCachingOptions policy_options = {},
               AuditConfig config = {}, std::uint32_t tenants = 2,
               std::size_t capacity = 4)
      : costs(monomial_costs(tenants)),
        policy(policy_options),
        auditor(config),
        session(capacity, tenants, policy, &costs, with_auditor(&auditor)) {
    for (std::uint64_t i = 0; i < 4 * capacity; ++i)
      session.step({static_cast<TenantId>(i % tenants), PageId{10} + i});
    EXPECT_TRUE(auditor.report().ok())
        << "corruption-free warm-up must be clean: "
        << auditor.report().summary();
  }

  static SimOptions with_auditor(PolicyAuditor* auditor) {
    SimOptions options;
    options.auditor = auditor;
    return options;
  }

  void audit_now() { auditor.audit_now(policy, session.cache(), session.now()); }

  std::vector<CostFunctionPtr> costs;
  ConvexCachingPolicy policy;
  ConvexCachingAuditor auditor;
  SimulatorSession session;
};

// ---------------------------------------------------------------------------
// Clean runs: zero violations, every check actually exercised.

struct CleanCase {
  const char* name;
  std::vector<CostFunctionPtr> (*costs)(std::uint32_t);
  DerivativeMode derivative;
  std::size_t window;
};

// Without this gtest names each case by a byte dump of the struct, whose
// pointer fields change with ASLR, so the test names would differ per run.
void PrintTo(const CleanCase& c, std::ostream* os) { *os << c.name; }

class AuditCleanRunTest : public ::testing::TestWithParam<CleanCase> {};

TEST_P(AuditCleanRunTest, NoFalsePositives) {
  const CleanCase& c = GetParam();
  const std::uint32_t tenants = 4;
  const Trace trace = zipf_trace(tenants, 10, 3000, /*seed=*/42);
  const auto costs = c.costs(tenants);

  ConvexCachingOptions options;
  options.derivative = c.derivative;
  options.window_length = c.window;
  ConvexCachingPolicy policy(options);

  ConvexCachingAuditor auditor;
  SimOptions sim_options;
  sim_options.auditor = &auditor;
  const SimResult result = run_trace(trace, 12, policy, &costs, sim_options);

  const AuditReport& report = auditor.report();
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_EQ(report.steps_observed, trace.size());
  EXPECT_GT(report.victim_checks, 0u);
  EXPECT_GT(report.budget_checks, 0u);
  EXPECT_GT(report.index_checks, 0u);
  EXPECT_EQ(result.metrics.total_hits() + result.metrics.total_misses(),
            trace.size());
}

INSTANTIATE_TEST_SUITE_P(
    Families, AuditCleanRunTest,
    ::testing::Values(
        CleanCase{"monomial_global", monomial_costs, DerivativeMode::kAnalytic,
                  0},
        CleanCase{"monomial_windowed", monomial_costs,
                  DerivativeMode::kAnalytic, 64},
        CleanCase{"monomial_discrete", monomial_costs,
                  DerivativeMode::kDiscreteMarginal, 0},
        CleanCase{"sla_global", sla_costs, DerivativeMode::kAnalytic, 0},
        CleanCase{"nonconvex_global", nonconvex_costs,
                  DerivativeMode::kDiscreteMarginal, 0}),
    [](const ::testing::TestParamInfo<CleanCase>& param_info) {
      return param_info.param.name;
    });

TEST(AuditShadow, AlgContReplayAcceptsHonestRun) {
  // Integer-valued convex costs, default policy options: the full §2.3
  // certificate must verify AND the continuous replay must evict exactly
  // as many pages per tenant as the live discrete policy did.
  const std::uint32_t tenants = 3;
  const Trace trace = zipf_trace(tenants, 8, 800, /*seed=*/7);
  std::vector<CostFunctionPtr> costs;
  for (std::uint32_t t = 0; t < tenants; ++t)
    costs.push_back(
        std::make_unique<MonomialCost>(2.0, 1.0 + static_cast<double>(t)));

  ConvexCachingPolicy policy;
  AuditConfig config;
  config.shadow_alg_cont = true;
  config.shadow_compare_evictions = true;
  ConvexCachingAuditor auditor(config);
  SimOptions sim_options;
  sim_options.auditor = &auditor;
  (void)run_trace(trace, 6, policy, &costs, sim_options);

  const AuditReport& report = auditor.report();
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_EQ(report.shadow_checks, 1u);
}

TEST(AuditShadow, OverflowSkipsReplayInsteadOfTruncating) {
  AuditConfig config;
  config.shadow_alg_cont = true;
  config.max_shadow_requests = 8;  // far fewer than the rig's warm-up steps
  Rig rig({}, config);
  rig.session.end_run();
  EXPECT_EQ(rig.auditor.report().shadow_checks, 0u);
  EXPECT_TRUE(rig.auditor.report().ok()) << rig.auditor.report().summary();
}

TEST(AuditCadence, SamplingSkipsSteps) {
  AuditConfig sparse;
  sparse.step_cadence = 7;
  sparse.eviction_cadence = 3;
  const Trace trace = zipf_trace(2, 8, 700, /*seed=*/11);
  const auto costs = monomial_costs(2);
  ConvexCachingPolicy policy;
  ConvexCachingAuditor auditor(sparse);
  SimOptions sim_options;
  sim_options.auditor = &auditor;
  (void)run_trace(trace, 5, policy, &costs, sim_options);

  const AuditReport& report = auditor.report();
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_EQ(report.steps_observed, trace.size());
  EXPECT_EQ(report.index_checks, trace.size() / 7);
}

// Hooks observe, never steer: with an auditor and an observer attached at
// their densest settings, every decision and every per-tenant book must
// match an unhooked run of the same trace.
TEST(AuditHooks, AuditorAndObserverDoNotChangeDecisions) {
  const std::uint32_t tenants = 4;
  const Trace trace = zipf_trace(tenants, 10, 3000, /*seed=*/5);
  const auto costs = monomial_costs(tenants);
  SimOptions plain_options;
  plain_options.record_events = true;
  ConvexCachingPolicy plain_policy;
  const SimResult plain =
      run_trace(trace, 12, plain_policy, &costs, plain_options);

  AuditConfig audit_config;
  audit_config.step_cadence = 1;
  audit_config.eviction_cadence = 1;
  ConvexCachingAuditor auditor(audit_config);
  obs::SimObserverOptions observer_options;
  observer_options.latency_sample_period = 1;
  obs::SimObserver observer(observer_options);
  SimOptions hooked_options = plain_options;
  hooked_options.auditor = &auditor;
  hooked_options.step_observer = &observer;
  ConvexCachingPolicy hooked_policy;
  const SimResult hooked =
      run_trace(trace, 12, hooked_policy, &costs, hooked_options);

  ASSERT_EQ(plain.events.size(), hooked.events.size());
  for (std::size_t i = 0; i < plain.events.size(); ++i) {
    ASSERT_EQ(plain.events[i].hit, hooked.events[i].hit) << "step " << i;
    ASSERT_EQ(plain.events[i].victim, hooked.events[i].victim)
        << "step " << i;
  }
  for (TenantId t = 0; t < tenants; ++t) {
    EXPECT_EQ(plain.metrics.hits(t), hooked.metrics.hits(t)) << t;
    EXPECT_EQ(plain.metrics.misses(t), hooked.metrics.misses(t)) << t;
    EXPECT_EQ(plain.metrics.evictions(t), hooked.metrics.evictions(t)) << t;
  }
  EXPECT_EQ(plain_policy.tenant_evictions(), hooked_policy.tenant_evictions());
  EXPECT_EQ(plain_policy.dual_mass_by_tenant(),
            hooked_policy.dual_mass_by_tenant());

  const AuditReport& report = auditor.report();
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_EQ(report.steps_observed, trace.size());
  EXPECT_GT(hooked.metrics.total_evictions(), 0u);
  EXPECT_EQ(report.victim_checks, hooked.metrics.total_evictions());
  EXPECT_EQ(observer.evictions_observed(), hooked.metrics.total_evictions());
}

TEST(AuditConfig_, RejectsZeroCadence) {
  AuditConfig broken;
  broken.step_cadence = 0;
  EXPECT_THROW(ConvexCachingAuditor{broken}, std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Mutation tests: every audit must fire when its invariant is broken.

TEST(AuditMutation, OffsetCorruptionBreaksBudgetLowerBound) {
  Rig rig;
  // A huge extra debit pushes every resident budget below zero — the
  // discrete analogue of invariant (3a).
  AuditTestPeer::shift_offset(rig.policy, 1e6);
  rig.audit_now();
  EXPECT_FALSE(rig.auditor.report().ok());
  EXPECT_TRUE(fired(rig.auditor.report(), "budget-bounds"))
      << rig.auditor.report().summary();
}

TEST(AuditMutation, NegativeOffsetBreaksBudgetUpperBound) {
  Rig rig;
  // Un-debiting inflates budgets past f'(m+1), the refresh ceiling.
  AuditTestPeer::shift_offset(rig.policy, -1e6);
  rig.audit_now();
  EXPECT_TRUE(fired(rig.auditor.report(), "budget-bounds"))
      << rig.auditor.report().summary();
}

TEST(AuditMutation, KeyCorruptionOrphansItsPostings) {
  Rig rig;
  const PageId page = rig.session.cache().pages().begin()->first;
  // Every posting of this page was scored against the old key. A raised
  // key is a legal lazy state (the postings under-estimate and are
  // re-posted when they surface); a key lowered past every posting — by
  // more than any bump it may lag behind — leaves the page uncovered.
  AuditTestPeer::shift_key(rig.policy, page, -1000.0);
  rig.audit_now();
  EXPECT_TRUE(fired(rig.auditor.report(), "index-coverage"))
      << rig.auditor.report().summary();
}

TEST(AuditMutation, BumpShrinkBreaksLazySoundness) {
  Rig rig;
  // Postings froze score = key + old bump. Shrinking the bump makes them
  // all over-estimate — exactly the corruption lazy invalidation cannot
  // repair (the policy handles real shrinkage with an index rebuild). Target
  // a tenant that actually owns a resident page.
  const TenantId tenant = rig.session.cache().pages().begin()->second.tenant;
  AuditTestPeer::shift_bump(rig.policy, tenant, -3.0);
  rig.audit_now();
  EXPECT_TRUE(fired(rig.auditor.report(), "index-soundness"))
      << rig.auditor.report().summary();
}

TEST(AuditMutation, DroppedHeapLosesCoverage) {
  Rig rig;
  AuditTestPeer::clear_global_heap(rig.policy);
  rig.audit_now();
  EXPECT_TRUE(fired(rig.auditor.report(), "index-coverage"))
      << rig.auditor.report().summary();
}

TEST(AuditMutation, FloodedHeapViolatesCompactionBound) {
  Rig rig;
  AuditTestPeer::flood_global_heap(rig.policy, 2000);
  rig.audit_now();
  EXPECT_TRUE(fired(rig.auditor.report(), "index-compaction"))
      << rig.auditor.report().summary();
}

TEST(AuditMutation, OverfullTableBreaksResidencyFeasibility) {
  Rig rig;
  // More resident pages than capacity: primal feasibility (1a) fails.
  AuditTestPeer::shrink_capacity(rig.policy, 1);
  rig.audit_now();
  EXPECT_TRUE(fired(rig.auditor.report(), "residency"))
      << rig.auditor.report().summary();
}

TEST(AuditMutation, OutOfRangeOwnerBreaksResidency) {
  Rig rig;
  // A record naming a tenant the run does not have: every per-tenant
  // lookup by that record would read out of bounds, so the audit stops at
  // the residency check.
  const PageId page = rig.session.cache().pages().begin()->first;
  AuditTestPeer::set_owner(rig.policy, page, 7);
  rig.audit_now();
  EXPECT_TRUE(fired(rig.auditor.report(), "residency"))
      << rig.auditor.report().summary();
  EXPECT_EQ(rig.auditor.report().violations, 1u)
      << rig.auditor.report().summary();
}

TEST(AuditMutation, ForeignTableBreaksResidency) {
  Rig rig;
  // The session must read the policy's table, not a second copy.
  CacheState mirror(4);
  for (const auto& [page, record] : rig.session.cache().pages())
    mirror.insert(page, record.tenant, record.key);
  rig.auditor.audit_now(rig.policy, mirror, rig.session.now());
  EXPECT_TRUE(fired(rig.auditor.report(), "residency"))
      << rig.auditor.report().summary();
}

TEST(AuditMutation, NonFiniteKeyBreaksBudgetBounds) {
  Rig rig;
  const PageId page = rig.session.cache().pages().begin()->first;
  AuditTestPeer::shift_key(rig.policy, page,
                           std::numeric_limits<double>::quiet_NaN());
  rig.audit_now();
  const AuditReport& report = rig.auditor.report();
  EXPECT_TRUE(std::any_of(
      report.failures.begin(), report.failures.end(),
      [&](const AuditViolation& v) {
        return v.check == "budget-bounds" &&
               v.detail == "non-finite budget for page " +
                               std::to_string(page);
      }))
      << report.summary();
}

TEST(AuditMutation, NonFiniteOffsetIsFlaggedDirectly) {
  Rig rig;
  AuditTestPeer::shift_offset(rig.policy,
                              std::numeric_limits<double>::quiet_NaN());
  rig.audit_now();
  EXPECT_TRUE(fired(rig.auditor.report(), "index-state"))
      << rig.auditor.report().summary();
}

TEST(AuditMutation, CorruptedVictimBudgetBreaksDualNonnegativity) {
  Rig rig;
  // With every budget pushed negative, the next eviction's y_t increment
  // B(victim) is negative — invariant (1c) caught at on_victim_chosen.
  AuditTestPeer::shift_offset(rig.policy, 1e6);
  rig.session.step({0, 999'999});
  EXPECT_TRUE(fired(rig.auditor.report(), "dual-nonnegativity"))
      << rig.auditor.report().summary();
}

TEST(AuditMutation, EvictionMiscountBreaksShadowComparison) {
  AuditConfig config;
  config.shadow_alg_cont = true;
  config.shadow_compare_evictions = true;
  Rig rig({}, config);
  // The live policy claims one extra eviction for tenant 0; the ALG-CONT
  // replay of the very same request stream disagrees.
  AuditTestPeer::add_tenant_evictions(rig.policy, 0, 1);
  rig.session.end_run();
  EXPECT_TRUE(fired(rig.auditor.report(), "shadow-evictions"))
      << rig.auditor.report().summary();
  EXPECT_EQ(rig.auditor.report().shadow_checks, 1u);
}

TEST(AuditMutation, FailFastThrowsAtFirstViolation) {
  AuditConfig config;
  config.fail_fast = true;
  Rig rig({}, config);
  AuditTestPeer::shift_offset(rig.policy, 1e6);
  EXPECT_THROW(rig.audit_now(), std::logic_error);
  EXPECT_EQ(rig.auditor.report().violations, 1u);
}

TEST(AuditMutation, RecordedFailuresAreCappedButCounted) {
  AuditConfig config;
  config.max_recorded_failures = 2;
  Rig rig({}, config);
  AuditTestPeer::shift_offset(rig.policy, 1e6);  // every page violates
  rig.audit_now();
  const AuditReport& report = rig.auditor.report();
  EXPECT_GT(report.violations, 2u);
  EXPECT_EQ(report.failures.size(), 2u);
}

// ---------------------------------------------------------------------------
// Victim minimality via a wrapper policy that lies about its choice.

/// Delegates everything to an inner ConvexCachingPolicy but swaps the
/// chosen victim for some *other* resident page. Any substitute is wrong:
/// either its budget is larger than the minimum, or it ties and loses the
/// lowest-page-id tie-break (the honest index already returns the
/// lowest-id minimum).
class WrongVictimPolicy final : public ReplacementPolicy {
 public:
  ConvexCachingPolicy& inner() noexcept { return inner_; }

  void reset(const PolicyContext& ctx) override {
    resident_.clear();
    inner_.reset(ctx);
  }
  void on_hit(const Request& request, TimeStep time) override {
    inner_.on_hit(request, time);
  }
  [[nodiscard]] PageId choose_victim(const Request& request,
                                     TimeStep time) override {
    const PageId honest = inner_.choose_victim(request, time);
    for (const PageId page : resident_)
      if (page != honest) return page;
    return honest;
  }
  void on_evict(PageId victim, TenantId owner, TimeStep time) override {
    resident_.erase(victim);
    inner_.on_evict(victim, owner, time);
  }
  void on_insert(const Request& request, TimeStep time) override {
    resident_.insert(request.page);
    inner_.on_insert(request, time);
  }
  [[nodiscard]] std::string name() const override { return "wrong-victim"; }
  [[nodiscard]] CacheState* residency() override { return inner_.residency(); }

 private:
  ConvexCachingPolicy inner_;
  std::set<PageId> resident_;
};

TEST(AuditMutation, WrongVictimFailsMinimalityCheck) {
  const std::uint32_t tenants = 2;
  const auto costs = monomial_costs(tenants);
  WrongVictimPolicy policy;
  AuditConfig config;
  // Evicting a non-minimal page debits survivors too much, so budget and
  // index checks would fire as collateral — disable them to pin the
  // verdict on the victim check alone.
  config.check_budget_bounds = false;
  config.check_index = false;
  ConvexCachingAuditor auditor(config);
  auditor.set_target(&policy.inner());
  SimOptions sim_options;
  sim_options.auditor = &auditor;
  SimulatorSession session(3, tenants, policy, &costs, sim_options);
  for (std::uint64_t i = 0; i < 12; ++i)
    session.step({static_cast<TenantId>(i % tenants), PageId{20} + i});
  session.end_run();

  const AuditReport& report = auditor.report();
  EXPECT_FALSE(report.ok());
  EXPECT_GT(report.victim_checks, 0u);
  EXPECT_TRUE(fired(report, "victim-minimality")) << report.summary();
  for (const AuditViolation& v : report.failures)
    EXPECT_TRUE(v.check == "victim-minimality" ||
                v.check == "dual-nonnegativity")
        << v.check << ": " << v.detail;
}

// ---------------------------------------------------------------------------
// Report ergonomics.

TEST(AuditReport_, SummaryNamesFirstFailure) {
  Rig rig;
  AuditTestPeer::clear_global_heap(rig.policy);
  rig.audit_now();
  const std::string s = rig.auditor.report().summary();
  EXPECT_NE(s.find("index-coverage"), std::string::npos) << s;
}

TEST(AuditReport_, CleanSummaryReportsZeroViolations) {
  Rig rig;
  rig.session.end_run();
  const std::string s = rig.auditor.report().summary();
  EXPECT_NE(s.find("0 violations"), std::string::npos) << s;
}

}  // namespace
}  // namespace ccc
