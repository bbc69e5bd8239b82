#include "trace/generators.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"
#include "util/string_util.hpp"

namespace ccc {

UniformPages::UniformPages(std::uint64_t num_pages) : num_pages_(num_pages) {
  CCC_REQUIRE(num_pages > 0, "UniformPages needs a non-empty universe");
}

std::uint64_t UniformPages::next(Rng& rng) { return rng.next_below(num_pages_); }

std::string UniformPages::name() const {
  return "uniform(" + std::to_string(num_pages_) + ")";
}

std::unique_ptr<PageGenerator> UniformPages::clone() const {
  return std::make_unique<UniformPages>(*this);
}

ZipfPages::ZipfPages(std::uint64_t num_pages, double skew)
    : num_pages_(num_pages), skew_(skew) {
  CCC_REQUIRE(num_pages > 0, "ZipfPages needs a non-empty universe");
  CCC_REQUIRE(skew >= 0.0, "ZipfPages skew must be >= 0");
  cdf_.resize(num_pages);
  double acc = 0.0;
  for (std::uint64_t r = 0; r < num_pages; ++r) {
    acc += 1.0 / std::pow(static_cast<double>(r + 1), skew);
    cdf_[r] = acc;
  }
  for (double& c : cdf_) c /= acc;
  cdf_.back() = 1.0;  // guard against rounding
}

std::uint64_t ZipfPages::next(Rng& rng) {
  const double u = rng.next_double();
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return static_cast<std::uint64_t>(std::distance(cdf_.begin(), it));
}

std::string ZipfPages::name() const {
  return "zipf(" + std::to_string(num_pages_) + ",s=" +
         format_compact(skew_) + ")";
}

std::unique_ptr<PageGenerator> ZipfPages::clone() const {
  return std::make_unique<ZipfPages>(*this);
}

ScanPages::ScanPages(std::uint64_t num_pages) : num_pages_(num_pages) {
  CCC_REQUIRE(num_pages > 0, "ScanPages needs a non-empty universe");
}

std::uint64_t ScanPages::next(Rng& /*rng*/) {
  const std::uint64_t page = position_;
  position_ = (position_ + 1) % num_pages_;
  return page;
}

std::string ScanPages::name() const {
  return "scan(" + std::to_string(num_pages_) + ")";
}

std::unique_ptr<PageGenerator> ScanPages::clone() const {
  return std::make_unique<ScanPages>(*this);
}

WorkingSetPages::WorkingSetPages(std::uint64_t num_pages,
                                 std::uint64_t hot_size,
                                 std::size_t phase_length,
                                 double hot_probability)
    : num_pages_(num_pages),
      hot_size_(hot_size),
      phase_length_(phase_length),
      hot_probability_(hot_probability) {
  CCC_REQUIRE(num_pages > 0, "WorkingSetPages needs a non-empty universe");
  CCC_REQUIRE(hot_size > 0 && hot_size <= num_pages,
              "hot set must be non-empty and fit in the universe");
  CCC_REQUIRE(phase_length > 0, "phase length must be positive");
  CCC_REQUIRE(hot_probability >= 0.0 && hot_probability <= 1.0,
              "hot probability must be within [0,1]");
}

std::uint64_t WorkingSetPages::next(Rng& rng) {
  if (draws_ > 0 && draws_ % phase_length_ == 0)
    hot_offset_ = (hot_offset_ + std::max<std::uint64_t>(1, hot_size_ / 2)) %
                  num_pages_;
  ++draws_;
  if (rng.next_bool(hot_probability_))
    return (hot_offset_ + rng.next_below(hot_size_)) % num_pages_;
  return rng.next_below(num_pages_);
}

std::string WorkingSetPages::name() const {
  return "workingset(" + std::to_string(num_pages_) + ",hot=" +
         std::to_string(hot_size_) + ",phase=" + std::to_string(phase_length_) +
         ",p=" + format_compact(hot_probability_) + ")";
}

std::unique_ptr<PageGenerator> WorkingSetPages::clone() const {
  return std::make_unique<WorkingSetPages>(*this);
}

MarkovPages::MarkovPages(std::uint64_t num_pages, double follow_probability,
                         double skew, std::uint64_t permutation_seed)
    : num_pages_(num_pages),
      follow_probability_(follow_probability),
      seed_distribution_(num_pages, skew) {
  CCC_REQUIRE(num_pages > 0, "MarkovPages needs a non-empty universe");
  CCC_REQUIRE(follow_probability >= 0.0 && follow_probability <= 1.0,
              "follow probability must be within [0,1]");
  // A single random cycle: shuffle, then successor[perm[i]] = perm[i+1].
  std::vector<std::uint64_t> perm(num_pages);
  for (std::uint64_t i = 0; i < num_pages; ++i) perm[i] = i;
  Rng perm_rng(permutation_seed);
  perm_rng.shuffle(perm);
  successor_.resize(num_pages);
  for (std::uint64_t i = 0; i < num_pages; ++i)
    successor_[perm[i]] = perm[(i + 1) % num_pages];
}

std::uint64_t MarkovPages::next(Rng& rng) {
  if (started_ && rng.next_bool(follow_probability_)) {
    current_ = successor_[current_];
  } else {
    current_ = seed_distribution_.next(rng);
    started_ = true;
  }
  return current_;
}

std::string MarkovPages::name() const {
  return "markov(" + std::to_string(num_pages_) + ",p=" +
         format_compact(follow_probability_) + ")";
}

std::unique_ptr<PageGenerator> MarkovPages::clone() const {
  return std::make_unique<MarkovPages>(*this);
}

Trace generate_trace(std::vector<TenantWorkload> tenants, std::size_t length,
                     Rng& rng) {
  CCC_REQUIRE(!tenants.empty(), "generate_trace needs at least one tenant");
  double total_weight = 0.0;
  for (const auto& tenant : tenants) {
    CCC_REQUIRE(tenant.pages != nullptr, "every tenant needs a generator");
    CCC_REQUIRE(tenant.weight > 0.0, "tenant weights must be positive");
    total_weight += tenant.weight;
  }

  Trace trace(static_cast<std::uint32_t>(tenants.size()));
  for (std::size_t t = 0; t < length; ++t) {
    double u = rng.next_double() * total_weight;
    std::size_t chosen = tenants.size() - 1;
    for (std::size_t i = 0; i < tenants.size(); ++i) {
      u -= tenants[i].weight;
      if (u < 0.0) {
        chosen = i;
        break;
      }
    }
    const auto tenant = static_cast<TenantId>(chosen);
    trace.append(tenant, make_page(tenant, tenants[chosen].pages->next(rng)));
  }
  return trace;
}

Trace random_uniform_trace(std::uint32_t num_tenants,
                           std::uint64_t pages_per_tenant, std::size_t length,
                           Rng& rng) {
  std::vector<TenantWorkload> tenants;
  tenants.reserve(num_tenants);
  for (std::uint32_t i = 0; i < num_tenants; ++i)
    tenants.push_back({std::make_unique<UniformPages>(pages_per_tenant), 1.0});
  return generate_trace(std::move(tenants), length, rng);
}

Trace zipf_tenant_trace(std::uint32_t num_tenants,
                        std::uint64_t pages_per_tenant, double skew,
                        std::size_t length, std::uint64_t seed) {
  std::vector<TenantWorkload> tenants;
  tenants.reserve(num_tenants);
  for (std::uint32_t i = 0; i < num_tenants; ++i)
    tenants.push_back(
        {std::make_unique<ZipfPages>(pages_per_tenant, skew), 1.0});
  Rng rng(seed);
  return generate_trace(std::move(tenants), length, rng);
}

}  // namespace ccc
