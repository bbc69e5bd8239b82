#pragma once
/// \file spec.hpp
/// \brief String-spec factory for cost functions, used by the CLI of the
///        benchmark/example binaries (`--cost mono:2`, `--cost sla:100,5`).
///
/// Grammar (one function per spec):
///   linear:<w>                 f(x) = w·x
///   mono:<beta>[,<scale>]      f(x) = scale·x^beta
///   poly:<c1>,<c2>,...         f(x) = c1·x + c2·x² + ...   (degree = count)
///   sla:<tolerated>,<penalty>  flat until `tolerated`, then linear
///   pwl:<x1>/<y1>,<x2>/<y2>,...   knots after the implicit (0,0)
///   exp:<a>,<b>                f(x) = a·(e^{bx} − 1)
///   step:<width>,<jump>        staircase (non-convex, §2.5)
///   sqrt[:<scale>]             f(x) = scale·sqrt(x) (concave, §2.5)
///
/// Also home of the named per-tenant cost families the throughput and
/// server binaries sweep (`--costs mono2,linear`).

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "cost/cost_function.hpp"

namespace ccc {

/// Parses a cost spec; throws std::invalid_argument with a helpful message
/// on malformed input.
[[nodiscard]] CostFunctionPtr parse_cost_spec(std::string_view spec);

/// One cost function per tenant from a named family. Tenant i gets weight
/// w_i = 1 + (i mod 4), so tenants are not interchangeable (with identical
/// costs ALG-DISCRETE degenerates to round-robin and its eviction index is
/// never stressed):
///   mono2   f_i(x) = w_i·x²
///   mono3   f_i(x) = w_i·x³
///   linear  f_i(x) = w_i·x
///   sla     free up to 8·w_i misses, then w_i per miss
/// Throws std::invalid_argument listing the valid names for any other
/// family.
[[nodiscard]] std::vector<CostFunctionPtr> make_cost_family(
    std::string_view family, std::uint32_t tenants);

}  // namespace ccc
