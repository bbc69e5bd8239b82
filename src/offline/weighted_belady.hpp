#pragma once
/// \file weighted_belady.hpp
/// \brief Offline cost-aware heuristic: Belady generalized with per-tenant
///        weights, iterated to a fixed point.
///
/// A single weighted-Belady pass evicts the resident page minimizing
/// w_{i(p)} / d(p), where d(p) is the forward distance to p's next request
/// (pages never used again go first, cheapest tenant first). Iteration:
/// start from unit weights (plain Belady), then repeatedly set
/// w_i = f_i'(b_i + 1) from the previous pass's miss vector and re-run,
/// keeping the best schedule seen. This provides a strong *upper bound* on
/// OPT's cost on instances too large for the exact DP — always labelled as
/// an upper bound in reports (see opt_bounds.hpp).
///
/// Belady's MIN (furthest-in-future) is WeightedBelady at unit weights:
/// the score 1/d(p) orders pages by farthest next use, never-used pages go
/// first, and ties fall to the lowest page id — the same victims the
/// classic scan picks. BeladyPolicy is that adapter.

#include <vector>

#include "cost/cost_function.hpp"
#include "offline/exact_opt.hpp"
#include "sim/policy.hpp"

namespace ccc {

/// One weighted-Belady pass as a policy (preview required).
class WeightedBeladyPolicy final : public ReplacementPolicy {
 public:
  /// `weights[i]` scales tenant i's eviction reluctance; all positive.
  explicit WeightedBeladyPolicy(std::vector<double> weights);

  void reset(const PolicyContext& ctx) override;
  void preview(const Trace& trace) override;
  [[nodiscard]] PageId choose_victim(const Request& request,
                                     TimeStep time) override;
  void on_evict(PageId victim, TenantId owner, TimeStep time) override;
  void on_insert(const Request& request, TimeStep time) override;
  [[nodiscard]] std::string name() const override {
    return "WeightedBelady";
  }

 private:
  std::vector<double> weights_;
  std::unordered_map<PageId, std::vector<TimeStep>> occurrences_;
  std::unordered_map<PageId, std::size_t> cursor_;
  std::vector<PageId> resident_;
  std::vector<TenantId> resident_tenant_;
  bool previewed_ = false;
};

/// Belady's MIN / OPT (furthest-in-future) — the offline policy that
/// minimizes the *total* number of misses. For a single tenant with a
/// linear cost it is the optimal offline algorithm of Theorem 1.1; for
/// convex multi-tenant objectives it is only a (good) heuristic and a
/// certified lower bound on Σ_i b_i. Runs WeightedBeladyPolicy with unit
/// weights for ctx.num_tenants (preview required).
class BeladyPolicy final : public ReplacementPolicy {
 public:
  void reset(const PolicyContext& ctx) override;
  void preview(const Trace& trace) override { pass_.preview(trace); }
  [[nodiscard]] PageId choose_victim(const Request& request,
                                     TimeStep time) override {
    return pass_.choose_victim(request, time);
  }
  void on_evict(PageId victim, TenantId owner, TimeStep time) override {
    pass_.on_evict(victim, owner, time);
  }
  void on_insert(const Request& request, TimeStep time) override {
    pass_.on_insert(request, time);
  }
  [[nodiscard]] std::string name() const override { return "Belady"; }

 private:
  WeightedBeladyPolicy pass_{{1.0}};
};

/// Iterated reweighting (see file comment). Returns the best (lowest-cost)
/// schedule's cost and miss vector. Iteration 0 is the unit-weight pass —
/// Belady's schedule — so the result is never worse than Belady; when
/// `belady_total_misses` is non-null it receives that pass's total miss
/// count (the minimum over all schedules). `max_iterations` bounds the loop.
[[nodiscard]] OptResult iterated_weighted_belady(
    const Trace& trace, std::size_t capacity,
    const std::vector<CostFunctionPtr>& costs,
    std::uint64_t* belady_total_misses = nullptr,
    std::size_t max_iterations = 8);

}  // namespace ccc
