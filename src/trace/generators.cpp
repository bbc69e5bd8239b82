#include "trace/generators.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

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
  CCC_REQUIRE(num_pages <= std::numeric_limits<std::uint32_t>::max(),
              "ZipfPages universe must fit 32-bit ranks");
  cdf_.resize(num_pages);
  double acc = 0.0;
  for (std::uint64_t r = 0; r < num_pages; ++r) {
    acc += 1.0 / std::pow(static_cast<double>(r + 1), skew);
    cdf_[r] = acc;
  }
  for (double& c : cdf_) c /= acc;
  cdf_.back() = 1.0;  // guard against rounding
  guide_.resize(num_pages);
  std::uint32_t r = 0;
  const auto buckets = static_cast<double>(num_pages);
  for (std::uint64_t b = 0; b < num_pages; ++b) {
    while (cdf_[r] < static_cast<double>(b) / buckets) ++r;
    guide_[b] = r;
  }
}

std::uint64_t ZipfPages::next(Rng& rng) {
  return inverse_cdf(rng.next_double());
}

std::uint64_t ZipfPages::inverse_cdf(double u) const {
  const auto bucket = std::min(
      static_cast<std::uint64_t>(u * static_cast<double>(num_pages_)),
      num_pages_ - 1);
  // Step from the guide to the first cdf entry >= u. The walk goes both
  // ways because u · n may round across a bucket edge; cdf_.back() == 1 > u
  // ends the forward walk.
  std::uint64_t r = guide_[bucket];
  while (r > 0 && cdf_[r - 1] >= u) --r;
  while (cdf_[r] < u) ++r;
  return r;
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

TenantSampler::TenantSampler(std::vector<double> weights)
    : weights_(std::move(weights)) {
  CCC_REQUIRE(!weights_.empty(), "generate_trace needs at least one tenant");
  CCC_REQUIRE(weights_.size() <= std::numeric_limits<std::uint32_t>::max(),
              "tenant count must fit 32-bit tenant ids");
  prefix_.reserve(weights_.size());
  double total = 0.0;
  for (const double w : weights_) {
    CCC_REQUIRE(std::isfinite(w), "tenant weights must be finite");
    CCC_REQUIRE(w > 0.0, "tenant weights must be positive");
    total += w;
    prefix_.push_back(total);
  }
  CCC_REQUIRE(std::isfinite(total), "tenant weights must have a finite sum");

  const std::size_t n = weights_.size();
  bucket_scale_ = static_cast<double>(n) / total;
  guide_.resize(n);
  std::uint32_t i = 0;
  for (std::size_t b = 0; b < n; ++b) {
    const double edge = static_cast<double>(b) / bucket_scale_;
    while (i + 1 < n && prefix_[i] <= edge) ++i;
    guide_[b] = i;
  }
  // Every scan step rounds once (≤ ulp(total)/2, as every partial value
  // lies in [−total, total]), and so does every prefix-sum addition, so
  // after i+1 steps the scan's u differs from u − P_i by less than
  // n·ulp(total). Outside a band one ulp wider than that on both sides of
  // the bracketing prefix sums the scan's signs — and so its answer — are
  // those of u − P_j. At total == DBL_MAX the band is infinite and every
  // draw scans.
  const double ulp =
      std::nextafter(total, std::numeric_limits<double>::infinity()) - total;
  band_ = static_cast<double>(n + 1) * ulp;
}

std::size_t TenantSampler::scan(double u) const {
  for (std::size_t i = 0; i < weights_.size(); ++i) {
    u -= weights_[i];
    if (u < 0.0) return i;
  }
  return weights_.size() - 1;
}

std::size_t TenantSampler::pick(double u) const {
  const std::size_t n = prefix_.size();
  const double x = u * bucket_scale_;
  // An out-of-range or NaN bucket (n / total overflows for a subnormal
  // total) falls to the last bucket; the walk below corrects any start.
  std::size_t i =
      guide_[x < static_cast<double>(n) ? static_cast<std::size_t>(x) : n - 1];
  while (i > 0 && u < prefix_[i - 1]) --i;
  while (i < n && u >= prefix_[i]) ++i;
  if (i == n) return scan(u);
  const double below = i == 0 ? 0.0 : prefix_[i - 1];
  if (u - below <= band_ || prefix_[i] - u <= band_) return scan(u);
  return i;
}

Trace generate_trace(std::vector<TenantWorkload> tenants, std::size_t length,
                     Rng& rng) {
  std::vector<double> weights;
  weights.reserve(tenants.size());
  for (const auto& tenant : tenants) {
    CCC_REQUIRE(tenant.pages != nullptr, "every tenant needs a generator");
    weights.push_back(tenant.weight);
  }
  const TenantSampler sampler(std::move(weights));
  const double total_weight = sampler.total_weight();

  Trace trace(static_cast<std::uint32_t>(tenants.size()));
  trace.reserve(length);
  for (std::size_t t = 0; t < length; ++t) {
    const std::size_t chosen = sampler.pick(rng.next_double() * total_weight);
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
