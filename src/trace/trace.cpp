#include "trace/trace.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace ccc {

Trace::Trace(std::uint32_t num_tenants) : num_tenants_(num_tenants) {
  CCC_REQUIRE(num_tenants > 0, "a trace needs at least one tenant");
}

void Trace::append(TenantId tenant, PageId page) {
  CCC_REQUIRE(tenant < num_tenants_, "tenant id out of range");
  // try_emplace builds no node for a page seen before.
  const auto [it, inserted] = owner_of_.try_emplace(page, tenant);
  CCC_REQUIRE(inserted || it->second == tenant,
              "page sets must be disjoint: page already owned by another "
              "tenant");
  requests_.push_back(Request{tenant, page});
}

TenantId Trace::owner(PageId page) const {
  const auto it = owner_of_.find(page);
  CCC_REQUIRE(it != owner_of_.end(), "page never requested in this trace");
  return it->second;
}

std::vector<std::uint64_t> Trace::requests_per_tenant() const {
  std::vector<std::uint64_t> counts(num_tenants_, 0);
  for (const Request& r : requests_) ++counts[r.tenant];
  return counts;
}

std::vector<std::uint64_t> Trace::pages_per_tenant() const {
  std::vector<std::uint64_t> counts(num_tenants_, 0);
  for (const auto& [page, tenant] : owner_of_) {
    (void)page;
    ++counts[tenant];
  }
  return counts;
}

Trace Trace::with_flush(std::size_t k) const {
  Trace out(num_tenants_ + 1);
  for (const Request& r : requests_) out.append(r);
  const TenantId dummy = num_tenants_;
  for (std::size_t j = 0; j < k; ++j)
    out.append(dummy, make_page(dummy, j));
  return out;
}

TraceStats compute_stats(const Trace& trace) {
  TraceStats stats;
  stats.length = trace.size();
  stats.distinct_pages = trace.distinct_pages();
  stats.num_tenants = trace.num_tenants();

  // Reuse distance: for each re-reference, the number of *distinct* pages
  // referenced since the previous access to the same page.
  std::unordered_map<PageId, std::size_t> last_seen;
  std::uint64_t reuse_sum = 0;
  std::uint64_t reuse_count = 0;
  const auto& reqs = trace.requests();
  for (std::size_t t = 0; t < reqs.size(); ++t) {
    const PageId page = reqs[t].page;
    const auto it = last_seen.find(page);
    if (it != last_seen.end()) {
      std::unordered_set<PageId> between;
      for (std::size_t s = it->second + 1; s < t; ++s)
        between.insert(reqs[s].page);
      reuse_sum += between.size();
      ++reuse_count;
    }
    last_seen[page] = t;
  }
  if (reuse_count > 0)
    stats.mean_reuse_distance =
        static_cast<double>(reuse_sum) / static_cast<double>(reuse_count);
  if (!reqs.empty())
    stats.hit_fraction_infinite =
        static_cast<double>(reuse_count) / static_cast<double>(reqs.size());
  return stats;
}

}  // namespace ccc
