#pragma once
/// \file generators.hpp
/// \brief Synthetic workload generators.
///
/// The paper's evaluation context (and the companion SQLVM study [14]) is a
/// multi-tenant database buffer pool. We do not have those proprietary
/// traces; these generators synthesize streams with the same structural
/// features that drive replacement decisions — skewed popularity (Zipf),
/// sequential scans, and shifting working sets — and a weighted interleaver
/// mixes per-tenant streams into one shared-cache request sequence.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "trace/trace.hpp"
#include "trace/types.hpp"
#include "util/rng.hpp"

namespace ccc {

/// Produces tenant-local page indices; stateless or internally stateful.
class PageGenerator {
 public:
  virtual ~PageGenerator() = default;

  /// Next tenant-local page index in [0, universe()).
  [[nodiscard]] virtual std::uint64_t next(Rng& rng) = 0;

  /// Size of the local page universe this generator can emit.
  [[nodiscard]] virtual std::uint64_t universe() const noexcept = 0;

  [[nodiscard]] virtual std::string name() const = 0;
  [[nodiscard]] virtual std::unique_ptr<PageGenerator> clone() const = 0;
};

using PageGeneratorPtr = std::unique_ptr<PageGenerator>;

/// Uniform over [0, num_pages).
class UniformPages final : public PageGenerator {
 public:
  explicit UniformPages(std::uint64_t num_pages);
  [[nodiscard]] std::uint64_t next(Rng& rng) override;
  [[nodiscard]] std::uint64_t universe() const noexcept override {
    return num_pages_;
  }
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] std::unique_ptr<PageGenerator> clone() const override;

 private:
  std::uint64_t num_pages_;
};

/// Zipf(s) over [0, num_pages): P(rank r) ∝ 1/(r+1)^s. Rank 0 is hottest.
/// CDF inversion: a guide table of one entry per page (Chen–Asau) starts
/// each draw next to its answer, and a short step finds the first cdf entry
/// ≥ u — exactly what a binary search returns — in O(1) expected time.
class ZipfPages final : public PageGenerator {
 public:
  ZipfPages(std::uint64_t num_pages, double skew);
  [[nodiscard]] std::uint64_t next(Rng& rng) override;
  /// The rank a draw of u ∈ [0, 1) maps to: the first r with cdf()[r] ≥ u.
  [[nodiscard]] std::uint64_t inverse_cdf(double u) const;
  /// Cumulative probabilities by rank; the last entry is exactly 1.
  [[nodiscard]] const std::vector<double>& cdf() const noexcept {
    return cdf_;
  }
  [[nodiscard]] std::uint64_t universe() const noexcept override {
    return num_pages_;
  }
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] std::unique_ptr<PageGenerator> clone() const override;

 private:
  std::uint64_t num_pages_;
  double skew_;
  std::vector<double> cdf_;
  /// guide_[b] = first rank whose cdf entry is ≥ b / num_pages.
  std::vector<std::uint32_t> guide_;
};

/// Cyclic sequential scan 0,1,...,n-1,0,1,... — the classic LRU-hostile
/// pattern (every request misses when n > cache share).
class ScanPages final : public PageGenerator {
 public:
  explicit ScanPages(std::uint64_t num_pages);
  [[nodiscard]] std::uint64_t next(Rng& rng) override;
  [[nodiscard]] std::uint64_t universe() const noexcept override {
    return num_pages_;
  }
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] std::unique_ptr<PageGenerator> clone() const override;

 private:
  std::uint64_t num_pages_;
  std::uint64_t position_ = 0;
};

/// Shifting working set: with probability `hot_probability` draws uniformly
/// from a hot window of `hot_size` pages; the window slides by `hot_size/2`
/// every `phase_length` draws (a phase change). Otherwise draws uniformly
/// from the whole universe.
class WorkingSetPages final : public PageGenerator {
 public:
  WorkingSetPages(std::uint64_t num_pages, std::uint64_t hot_size,
                  std::size_t phase_length, double hot_probability);
  [[nodiscard]] std::uint64_t next(Rng& rng) override;
  [[nodiscard]] std::uint64_t universe() const noexcept override {
    return num_pages_;
  }
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] std::unique_ptr<PageGenerator> clone() const override;

 private:
  std::uint64_t num_pages_;
  std::uint64_t hot_size_;
  std::size_t phase_length_;
  double hot_probability_;
  std::size_t draws_ = 0;
  std::uint64_t hot_offset_ = 0;
};

/// Markov-correlated references: with probability `follow_probability` the
/// next page is the successor of the current one along a fixed random
/// permutation cycle (modelling sequential runs / pointer chasing);
/// otherwise it re-seeds from a Zipf(skew) draw. Produces the run-plus-skew
/// structure typical of database page streams.
class MarkovPages final : public PageGenerator {
 public:
  MarkovPages(std::uint64_t num_pages, double follow_probability,
              double skew, std::uint64_t permutation_seed);
  [[nodiscard]] std::uint64_t next(Rng& rng) override;
  [[nodiscard]] std::uint64_t universe() const noexcept override {
    return num_pages_;
  }
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] std::unique_ptr<PageGenerator> clone() const override;

 private:
  std::uint64_t num_pages_;
  double follow_probability_;
  ZipfPages seed_distribution_;
  std::vector<std::uint64_t> successor_;  ///< permutation cycle
  std::uint64_t current_ = 0;
  bool started_ = false;
};

/// One tenant of a multi-tenant workload: a page generator plus a relative
/// request rate (interleaving weight).
struct TenantWorkload {
  PageGeneratorPtr pages;
  double weight = 1.0;
};

/// The tenant draw of `generate_trace`. It returns, for any u, exactly the
/// tenant the sequential scan `u -= w_0; u -= w_1; ...` stops at (the first
/// i where u falls below 0; the last tenant if none does), in O(1) expected
/// time: a guide table over the prefix sums P_i = P_{i-1} + w_i starts the
/// search next to the first i with u < P_i. That answer is the scan's unless
/// u lies within the scan's accumulated rounding error, (n+1)·ulp(total), of
/// a bucket edge P_{i-1} or P_i; there the scan itself runs.
class TenantSampler {
 public:
  /// Requires at least one weight, each positive and finite, with a finite
  /// sum.
  explicit TenantSampler(std::vector<double> weights);

  /// Σ w_i, summed in index order (that sum is P_{n-1}).
  [[nodiscard]] double total_weight() const noexcept {
    return prefix_.back();
  }

  /// The tenant the sequential scan picks for u (u ∈ [0, total_weight()]).
  [[nodiscard]] std::size_t pick(double u) const;

 private:
  /// The literal scan: the exact answer inside the rounding band.
  [[nodiscard]] std::size_t scan(double u) const;

  std::vector<double> weights_;
  std::vector<double> prefix_;  ///< P_i, the scan's partial sums
  /// guide_[b] = first i with P_i > b·total/n, over n buckets.
  std::vector<std::uint32_t> guide_;
  double bucket_scale_ = 0.0;  ///< n / total: u ↦ its bucket
  double band_ = 0.0;          ///< (n+1)·ulp(total)
};

/// Interleaves per-tenant streams into a shared trace of `length` requests:
/// each step samples a tenant proportionally to its weight (`TenantSampler`),
/// then draws a page from that tenant's generator.
[[nodiscard]] Trace generate_trace(std::vector<TenantWorkload> tenants,
                                   std::size_t length, Rng& rng);

/// Small uniform multi-tenant trace helper used heavily by tests and the
/// exact-OPT experiments: `num_tenants` tenants, `pages_per_tenant` pages
/// each, uniform popularity and equal rates.
[[nodiscard]] Trace random_uniform_trace(std::uint32_t num_tenants,
                                         std::uint64_t pages_per_tenant,
                                         std::size_t length, Rng& rng);

/// The multi-tenant workload of the throughput and server benchmarks:
/// `num_tenants` tenants at equal rates, each drawing from its own
/// `pages_per_tenant`-page universe with Zipf(`skew`) popularity. The
/// same `seed` always yields the same trace.
[[nodiscard]] Trace zipf_tenant_trace(std::uint32_t num_tenants,
                                      std::uint64_t pages_per_tenant,
                                      double skew, std::size_t length,
                                      std::uint64_t seed);

}  // namespace ccc
