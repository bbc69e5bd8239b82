#include "offline/weighted_belady.hpp"

#include <algorithm>
#include <limits>

#include "sim/simulator.hpp"
#include "util/check.hpp"

namespace ccc {

WeightedBeladyPolicy::WeightedBeladyPolicy(std::vector<double> weights)
    : weights_(std::move(weights)) {
  CCC_REQUIRE(!weights_.empty(), "WeightedBelady needs tenant weights");
  for (const double w : weights_)
    CCC_REQUIRE(w > 0.0, "WeightedBelady weights must be positive");
}

void WeightedBeladyPolicy::reset(const PolicyContext& ctx) {
  CCC_REQUIRE(weights_.size() >= ctx.num_tenants,
              "need one weight per tenant");
  occurrences_.clear();
  cursor_.clear();
  resident_.clear();
  resident_tenant_.clear();
  previewed_ = false;
}

void WeightedBeladyPolicy::preview(const Trace& trace) {
  for (TimeStep t = 0; t < trace.size(); ++t)
    occurrences_[trace[t].page].push_back(t);
  previewed_ = true;
}

PageId WeightedBeladyPolicy::choose_victim(const Request& /*request*/,
                                           TimeStep time) {
  CCC_CHECK(previewed_, "WeightedBelady requires preview()");
  CCC_CHECK(!resident_.empty(),
            "WeightedBelady asked for a victim with an empty cache");
  // Score = weight / forward-distance: low weight and far future ⇒ evict.
  // Never-used-again pages are split by weight (then page id).
  bool best_never = false;
  double best_score = 0.0;
  PageId best_page = 0;
  bool found = false;
  for (std::size_t idx = 0; idx < resident_.size(); ++idx) {
    const PageId page = resident_[idx];
    const auto& occs = occurrences_.at(page);
    std::size_t& cur = cursor_[page];
    while (cur < occs.size() && occs[cur] <= time) ++cur;
    const bool never = cur >= occs.size();
    const double weight = weights_[resident_tenant_[idx]];
    const double distance =
        never ? 1.0 : static_cast<double>(occs[cur] - time);
    const double score = weight / distance;
    const bool better = [&] {
      if (!found) return true;
      if (never != best_never) return never;
      if (never) {
        if (weight != best_score) return weight < best_score;
        return page < best_page;
      }
      if (score != best_score) return score < best_score;
      return page < best_page;
    }();
    if (better) {
      found = true;
      best_never = never;
      best_score = never ? weight : score;
      best_page = page;
    }
  }
  return best_page;
}

void WeightedBeladyPolicy::on_evict(PageId victim, TenantId /*owner*/,
                                    TimeStep /*time*/) {
  const auto it = std::find(resident_.begin(), resident_.end(), victim);
  CCC_CHECK(it != resident_.end(),
            "WeightedBelady evicting an untracked page");
  const auto idx = static_cast<std::size_t>(it - resident_.begin());
  resident_[idx] = resident_.back();
  resident_tenant_[idx] = resident_tenant_.back();
  resident_.pop_back();
  resident_tenant_.pop_back();
}

void WeightedBeladyPolicy::on_insert(const Request& request,
                                     TimeStep /*time*/) {
  resident_.push_back(request.page);
  resident_tenant_.push_back(request.tenant);
}

void BeladyPolicy::reset(const PolicyContext& ctx) {
  pass_ = WeightedBeladyPolicy(
      std::vector<double>(std::max<std::uint32_t>(ctx.num_tenants, 1), 1.0));
  pass_.reset(ctx);
}

OptResult iterated_weighted_belady(const Trace& trace, std::size_t capacity,
                                   const std::vector<CostFunctionPtr>& costs,
                                   std::uint64_t* belady_total_misses,
                                   std::size_t max_iterations) {
  CCC_REQUIRE(max_iterations >= 1, "need at least one iteration");
  std::vector<double> weights(trace.num_tenants(), 1.0);
  OptResult best;
  best.cost = std::numeric_limits<double>::infinity();

  for (std::size_t iter = 0; iter < max_iterations; ++iter) {
    WeightedBeladyPolicy policy(weights);
    const SimResult result = run_trace(trace, capacity, policy, &costs);
    const double cost = total_cost(result.metrics.miss_vector(), costs);
    if (iter == 0 && belady_total_misses != nullptr)
      *belady_total_misses = result.metrics.total_misses();
    if (cost < best.cost) {
      best.cost = cost;
      best.misses = result.metrics.miss_vector();
    }
    // Reweight by the marginal cost of each tenant's next miss.
    std::vector<double> next_weights(trace.num_tenants());
    bool changed = false;
    for (std::uint32_t i = 0; i < trace.num_tenants(); ++i) {
      const double w = std::max(
          1e-12, costs[i]->derivative(
                     static_cast<double>(result.metrics.misses(i)) + 1.0));
      next_weights[i] = w;
      changed = changed || w != weights[i];
    }
    if (!changed) break;
    weights = std::move(next_weights);
  }
  return best;
}

}  // namespace ccc
