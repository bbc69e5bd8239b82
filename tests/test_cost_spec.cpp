// Unit tests for the cost-spec string factory and the named per-tenant
// cost families (cost/spec.hpp).
#include "cost/spec.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>

namespace ccc {
namespace {

TEST(CostSpec, Linear) {
  const auto f = parse_cost_spec("linear:3");
  EXPECT_DOUBLE_EQ(f->value(4.0), 12.0);
  EXPECT_DOUBLE_EQ(f->alpha(100.0), 1.0);
}

TEST(CostSpec, Monomial) {
  const auto f = parse_cost_spec("mono:2");
  EXPECT_DOUBLE_EQ(f->value(3.0), 9.0);
  const auto g = parse_cost_spec("mono:2,4");
  EXPECT_DOUBLE_EQ(g->value(3.0), 36.0);
}

TEST(CostSpec, Polynomial) {
  const auto f = parse_cost_spec("poly:1,2");  // x + 2x²
  EXPECT_DOUBLE_EQ(f->value(2.0), 2.0 + 8.0);
}

TEST(CostSpec, Sla) {
  const auto f = parse_cost_spec("sla:100,5");
  EXPECT_DOUBLE_EQ(f->value(100.0), 0.0);
  EXPECT_DOUBLE_EQ(f->value(101.0), 5.0);
}

TEST(CostSpec, Pwl) {
  const auto f = parse_cost_spec("pwl:10/0,20/10");
  EXPECT_DOUBLE_EQ(f->value(10.0), 0.0);
  EXPECT_DOUBLE_EQ(f->value(15.0), 5.0);
  EXPECT_DOUBLE_EQ(f->value(25.0), 15.0);  // last slope extends
}

TEST(CostSpec, Exponential) {
  const auto f = parse_cost_spec("exp:1,0.5");
  EXPECT_NEAR(f->value(2.0), std::exp(1.0) - 1.0, 1e-12);
}

TEST(CostSpec, StepAndSqrt) {
  const auto f = parse_cost_spec("step:5,2");
  EXPECT_DOUBLE_EQ(f->value(5.0), 2.0);
  EXPECT_FALSE(f->is_convex());
  const auto g = parse_cost_spec("sqrt");
  EXPECT_DOUBLE_EQ(g->value(9.0), 3.0);
  const auto h = parse_cost_spec("sqrt:2");
  EXPECT_DOUBLE_EQ(h->value(9.0), 6.0);
}

TEST(CostSpec, WhitespaceTolerated) {
  const auto f = parse_cost_spec("  mono:2  ");
  EXPECT_DOUBLE_EQ(f->value(2.0), 4.0);
}

TEST(CostSpec, RejectsMalformed) {
  EXPECT_THROW((void)parse_cost_spec("unknown:1"), std::invalid_argument);
  EXPECT_THROW((void)parse_cost_spec("mono"), std::invalid_argument);
  EXPECT_THROW((void)parse_cost_spec("mono:1,2,3"), std::invalid_argument);
  EXPECT_THROW((void)parse_cost_spec("linear:"), std::invalid_argument);
  EXPECT_THROW((void)parse_cost_spec("sla:100"), std::invalid_argument);
  EXPECT_THROW((void)parse_cost_spec("pwl:10"), std::invalid_argument);
  EXPECT_THROW((void)parse_cost_spec("mono:abc"), std::invalid_argument);
}

// Tenant i's weight is w_i = 1 + (i mod 4); five tenants cover the wrap.
constexpr double kWeights[] = {1.0, 2.0, 3.0, 4.0, 1.0};

TEST(CostFamily, MonomialFamiliesScaleByTenantWeight) {
  const struct {
    const char* name;
    double beta;
  } families[] = {{"linear", 1.0}, {"mono2", 2.0}, {"mono3", 3.0}};
  for (const auto& family : families) {
    SCOPED_TRACE(family.name);
    const auto costs = make_cost_family(family.name, 5);
    ASSERT_EQ(costs.size(), 5u);
    for (std::size_t t = 0; t < costs.size(); ++t) {
      EXPECT_DOUBLE_EQ(costs[t]->value(0.0), 0.0);
      EXPECT_DOUBLE_EQ(costs[t]->value(1.0), kWeights[t]);
      EXPECT_DOUBLE_EQ(costs[t]->value(3.0),
                       kWeights[t] * std::pow(3.0, family.beta));
      EXPECT_TRUE(costs[t]->is_convex());
    }
  }
}

TEST(CostFamily, SlaIsFreeUpToEightWeightsThenWeightPerMiss) {
  const auto costs = make_cost_family("sla", 5);
  ASSERT_EQ(costs.size(), 5u);
  for (std::size_t t = 0; t < costs.size(); ++t) {
    const double w = kWeights[t];
    EXPECT_DOUBLE_EQ(costs[t]->value(8.0 * w), 0.0);
    EXPECT_DOUBLE_EQ(costs[t]->value(8.0 * w + 1.0), w);
    EXPECT_DOUBLE_EQ(costs[t]->value(8.0 * w + 10.0), 10.0 * w);
  }
}

TEST(CostFamily, UnknownFamilyListsValidNames) {
  for (const char* bad : {"none", "mono", "MONO2", ""}) {
    SCOPED_TRACE(bad);
    try {
      (void)make_cost_family(bad, 2);
      FAIL() << "accepted unknown family";
    } catch (const std::invalid_argument& e) {
      const std::string message = e.what();
      EXPECT_NE(message.find("'" + std::string(bad) + "'"),
                std::string::npos);
      EXPECT_NE(message.find("valid: mono2 mono3 linear sla"),
                std::string::npos)
          << message;
    }
  }
}

}  // namespace
}  // namespace ccc
