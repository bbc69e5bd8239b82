#pragma once
/// \file landlord.hpp
/// \brief Landlord / GreedyDual for *weighted* caching (Young [20]) — the
///        strongest prior-art baseline the paper generalizes. Each resident
///        page holds credit equal to its tenant's weight; eviction removes
///        the minimum-credit page and debits every survivor by that credit.
///
/// Landlord is ALG-DISCRETE (Fig. 3) at β = 1: with a linear cost
/// f_i(x) = w_i·x the next-miss marginal is the constant w_i and the
/// victim-tenant bump is zero, so the budget *is* the credit. This class
/// therefore owns no index or table of its own: reset() builds
/// MonomialCost(1, w_i) per tenant and forwards every call — residency()
/// too — to a ConvexCachingPolicy over those costs. It inherits that
/// engine's contract — bit-identical to a
/// dedicated credit index on integer-valued weights; on fractional weights
/// the folded offset update (offset += key − offset rather than
/// offset = key) may round differently in the last bit.
///
/// Weights: tenant i's weight defaults to f_i'(1) — the marginal cost of its
/// first miss — which is exactly w_i for linear cost functions and a
/// "static linearization" of a convex f_i otherwise. E4 uses this as the
/// cost-aware-but-convexity-blind baseline. The adapter is not a
/// ConvexCachingPolicy, so ShardedCache withholds its dual certificate: it
/// would certify the linearized costs, not the tenants' real ones.

#include <vector>

#include "core/convex_caching.hpp"
#include "sim/policy.hpp"

namespace ccc {

class LandlordPolicy final : public ReplacementPolicy {
 public:
  /// If `weights` is empty, weights are derived from ctx.costs at reset()
  /// as f_i'(1); ctx.costs must then be non-null.
  explicit LandlordPolicy(std::vector<double> weights = {});

  void reset(const PolicyContext& ctx) override;
  void on_hit(const Request& request, TimeStep time) override {
    engine_.on_hit(request, time);
  }
  [[nodiscard]] PageId choose_victim(const Request& request,
                                     TimeStep time) override {
    return engine_.choose_victim(request, time);
  }
  void on_evict(PageId victim, TenantId owner, TimeStep time) override {
    engine_.on_evict(victim, owner, time);
  }
  void on_insert(const Request& request, TimeStep time) override {
    engine_.on_insert(request, time);
  }
  [[nodiscard]] std::string name() const override { return "Landlord"; }
  [[nodiscard]] PerfCounters perf_counters() const override {
    return engine_.perf_counters();
  }
  [[nodiscard]] CacheState* residency() override { return engine_.residency(); }

 private:
  std::vector<double> configured_weights_;
  std::vector<CostFunctionPtr> linear_costs_;  ///< MonomialCost(1, w_i)
  ConvexCachingPolicy engine_;
};

}  // namespace ccc
