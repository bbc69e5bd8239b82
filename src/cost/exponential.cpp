#include "cost/exponential.hpp"

#include <cmath>

#include "util/check.hpp"
#include "util/string_util.hpp"

namespace ccc {

ExponentialCost::ExponentialCost(double a, double b) : a_(a), b_(b) {
  CCC_REQUIRE(a > 0.0, "ExponentialCost requires a > 0");
  CCC_REQUIRE(b > 0.0, "ExponentialCost requires b > 0");
}

// A coefficient below 1 lets e^{bx} overflow before the product; then the
// coefficient moves into the exponent (expm1's −1 is below one ulp there).

double ExponentialCost::value(double x) const {
  CCC_REQUIRE(x >= 0.0, "cost functions are defined on x >= 0");
  const double direct = a_ * std::expm1(b_ * x);
  return std::isfinite(direct) ? direct : std::exp(b_ * x + std::log(a_));
}

double ExponentialCost::derivative(double x) const {
  CCC_REQUIRE(x >= 0.0, "cost functions are defined on x >= 0");
  const double direct = a_ * b_ * std::exp(b_ * x);
  return std::isfinite(direct) ? direct
                               : std::exp(b_ * x + std::log(a_ * b_));
}

double ExponentialCost::alpha(double x_max) const {
  CCC_REQUIRE(x_max > 0.0, "alpha needs a positive range");
  const double bx = b_ * x_max;
  return bx * std::exp(bx) / std::expm1(bx);
}

std::string ExponentialCost::describe() const {
  return format_compact(a_) + "*(e^(" + format_compact(b_) + "x)-1)";
}

std::unique_ptr<CostFunction> ExponentialCost::clone() const {
  return std::make_unique<ExponentialCost>(*this);
}

}  // namespace ccc
