#include "policies/landlord.hpp"

#include "cost/monomial.hpp"
#include "util/check.hpp"

namespace ccc {

LandlordPolicy::LandlordPolicy(std::vector<double> weights)
    : configured_weights_(std::move(weights)) {
  for (const double w : configured_weights_)
    CCC_REQUIRE(w > 0.0, "Landlord weights must be positive");
}

void LandlordPolicy::reset(const PolicyContext& ctx) {
  if (configured_weights_.empty())
    CCC_REQUIRE(ctx.costs != nullptr,
                "Landlord needs explicit weights or tenant cost functions");
  else
    CCC_REQUIRE(configured_weights_.size() >= ctx.num_tenants,
                "Landlord needs one weight per tenant");
  linear_costs_.clear();
  linear_costs_.reserve(ctx.num_tenants);
  for (std::uint32_t i = 0; i < ctx.num_tenants; ++i) {
    const double w = configured_weights_.empty()
                         ? (*ctx.costs)[i]->derivative(1.0)
                         : configured_weights_[i];
    linear_costs_.push_back(
        std::make_unique<MonomialCost>(1.0, w > 0.0 ? w : 1e-12));
  }
  PolicyContext linear = ctx;
  linear.costs = &linear_costs_;
  engine_.reset(linear);
}

}  // namespace ccc
