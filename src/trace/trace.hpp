#pragma once
/// \file trace.hpp
/// \brief The request sequence σ of §1.2 plus summary statistics.

#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "trace/types.hpp"

namespace ccc {

/// A finite request sequence over `num_tenants` tenants. Invariant: each
/// page is owned by exactly one tenant across the whole trace (checked on
/// append), matching the paper's disjoint page sets P_i.
class Trace {
 public:
  explicit Trace(std::uint32_t num_tenants);

  /// Appends a request; throws if `tenant` is out of range or if `page` was
  /// previously requested by a different tenant.
  void append(TenantId tenant, PageId page);
  void append(const Request& r) { append(r.tenant, r.page); }

  /// Reserves room for `n` requests in total.
  void reserve(std::size_t n) { requests_.reserve(n); }

  [[nodiscard]] std::size_t size() const noexcept { return requests_.size(); }
  [[nodiscard]] bool empty() const noexcept { return requests_.empty(); }
  [[nodiscard]] std::uint32_t num_tenants() const noexcept {
    return num_tenants_;
  }
  [[nodiscard]] const Request& operator[](std::size_t t) const {
    return requests_[t];
  }
  [[nodiscard]] const std::vector<Request>& requests() const noexcept {
    return requests_;
  }
  [[nodiscard]] auto begin() const noexcept { return requests_.begin(); }
  [[nodiscard]] auto end() const noexcept { return requests_.end(); }

  /// Number of distinct pages requested so far — |B(T)| in the paper.
  [[nodiscard]] std::size_t distinct_pages() const noexcept {
    return owner_of_.size();
  }

  /// Owner lookup for pages seen in this trace; throws for unknown pages.
  [[nodiscard]] TenantId owner(PageId page) const;

  /// Per-tenant request counts.
  [[nodiscard]] std::vector<std::uint64_t> requests_per_tenant() const;

  /// Distinct pages per tenant (|P_i| restricted to requested pages).
  [[nodiscard]] std::vector<std::uint64_t> pages_per_tenant() const;

  /// Returns a copy of this trace followed by `k` requests to fresh pages of
  /// a new dummy tenant — the paper's §2.1 device that forces every resident
  /// page out so evictions equal misses. The dummy tenant is the new last
  /// tenant (index = num_tenants()).
  [[nodiscard]] Trace with_flush(std::size_t k) const;

 private:
  std::uint32_t num_tenants_;
  std::vector<Request> requests_;
  std::unordered_map<PageId, TenantId> owner_of_;
};

/// Compact trace statistics for reporting.
struct TraceStats {
  std::size_t length = 0;
  std::size_t distinct_pages = 0;
  std::uint32_t num_tenants = 0;
  double mean_reuse_distance = 0.0;   ///< mean distinct pages between reuses
  double hit_fraction_infinite = 0.0; ///< fraction of re-references
};

/// Computes reuse statistics in one pass (O(T·distinct) worst case for the
/// stack-distance part, using the classic set-scan formulation).
[[nodiscard]] TraceStats compute_stats(const Trace& trace);

}  // namespace ccc
