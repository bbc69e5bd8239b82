#pragma once
/// \file opt_bounds.hpp
/// \brief Certified bracketing of the offline optimum's cost.
///
/// Competitive-ratio experiments need OPT. On small instances the exact DP
/// delivers it; on large ones we report a bracket:
///   * upper bound — best schedule iterated weighted Belady finds (its
///     first pass is plain Belady): a real algorithm's cost, so OPT ≤ upper;
///   * lower bound — Belady minimizes the *total* miss count M over all
///     schedules; the cheapest way any schedule could distribute ≥ M misses
///     across tenants is min Σ_i f_i(b_i) s.t. Σ b_i = M (convex
///     water-filling, computed greedily on integer marginals), so
///     OPT ≥ lower.
/// Ratios against `upper` underestimate the true competitive ratio; ratios
/// against `lower` overestimate it. Reports always print which is used.

#include <vector>

#include "cost/cost_function.hpp"
#include "offline/exact_opt.hpp"
#include "trace/trace.hpp"

namespace ccc {

struct OptEstimate {
  bool exact = false;     ///< true ⇒ upper == lower == OPT
  double upper_cost = 0.0;
  double lower_cost = 0.0;
  /// Miss vector of the best known schedule (the exact one when exact).
  std::vector<std::uint64_t> upper_misses;
};

/// Cheapest distribution of exactly `total_misses` misses across tenants:
/// min Σ f_i(b_i) s.t. Σ b_i = total, by greedy integer water-filling
/// (optimal for convex f_i).
[[nodiscard]] OptResult cheapest_distribution(
    std::uint64_t total_misses, const std::vector<CostFunctionPtr>& costs,
    std::uint32_t num_tenants);

/// Brackets OPT. Attempts the exact DP when the instance looks small
/// (distinct pages ≤ `exact_page_limit` and the DP stays within its state
/// budget); otherwise falls back to the heuristic bracket.
[[nodiscard]] OptEstimate estimate_opt(const Trace& trace,
                                       std::size_t capacity,
                                       const std::vector<CostFunctionPtr>& costs,
                                       std::size_t exact_page_limit = 10);

}  // namespace ccc
