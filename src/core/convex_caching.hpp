#pragma once
/// \file convex_caching.hpp
/// \brief ALG-DISCRETE (paper Fig. 3) — the paper's online algorithm.
///
/// Every resident page carries a budget `B(p)`. On a hit or insertion the
/// touched page's budget is refreshed to `f'_{i(p)}(m(i(p)) + 1)` — the
/// marginal cost of its tenant's *next* miss. When an eviction is needed
/// the minimum-budget page `p` goes; every other resident page is debited
/// `B(p)`, and the pages of the victim's tenant are additionally bumped by
/// `f'(m+2) − f'(m+1)` because that tenant's miss count just grew.
///
/// This is the discrete implementation of the primal–dual ALG-CONT
/// (Fig. 2): the dual variable `y_t` rises by exactly `B(p)` at each
/// eviction, and the budget of a page equals its Lagrangian residual. A
/// property test asserts the eviction sequences coincide.
///
/// This class is the production implementation. The "debit everyone" step
/// is folded into a global offset (it cannot change the argmin) and the
/// per-tenant bump into a per-tenant offset, so per-page keys are immutable
/// between touches. A page's re-freeze value `f'(m+1) − bump + offset` is
/// cached per tenant (`refreeze_`, recomputed only when the tenant's miss
/// count or bump moves), so a hit is one residency probe and one store.
///
/// Victim selection is served by a single cross-tenant lazy min-heap over
/// (key + tenant bump, page id). Its invariant is that every resident page
/// has a posting whose score is ≤ its current `key + tenant_bump_[i]`.
/// Neither a grown bump nor a hit that raises a key pushes anything: the
/// page's old posting now under-estimates, and `choose_victim` re-posts it
/// at the current score when it surfaces. Only a key that *falls* on a hit
/// (FP-ulp or non-convex paths) is posted eagerly. Every operation is
/// therefore amortized O(log k) regardless of the number of tenants, and
/// hits never touch the heap. This is the Landlord-style credit-index
/// layout (Young's on-line file caching) applied to the paper's budgets.
///
/// Budgets are computed with the same floating-point expressions as the
/// literal Fig. 3 transcription (NaiveConvexCachingPolicy), so on
/// integer-valued cost families the two victim sequences match bit for
/// bit.
///
/// §2.5: with `DerivativeMode::kDiscreteMarginal` the analytic derivative
/// is replaced by `f(m+1) − f(m)`, which supports arbitrary — non-convex,
/// even discontinuous — cost functions (no guarantee, but a working
/// algorithm; experiment E5). Non-convex costs can *shrink* a tenant's
/// bump; lazy re-posting is only sound for monotone growth, so the global
/// index is then rebuilt from the resident set — the one repair path,
/// shared with compaction and window rollover. Convex runs never take it.
///
/// At β = 1 (linear costs) the marginal is constant and the bump is zero:
/// this engine is then weighted caching, and LandlordPolicy runs on it.

#include <cstdint>
#include <queue>
#include <vector>

#include "sim/policy.hpp"
#include "util/arena.hpp"

namespace ccc {

/// How the marginal cost of the next miss is evaluated.
enum class DerivativeMode {
  kAnalytic,          ///< f'(m+1), as written in Fig. 3
  kDiscreteMarginal,  ///< f(m+1) − f(m), the §2.5 generalization
};

/// Ablation switches for experiment E5. Production defaults: all on.
struct ConvexCachingOptions {
  DerivativeMode derivative = DerivativeMode::kAnalytic;
  /// Fig. 3 step "B(p') ← B(p') − B(p)". Off ⇒ budgets never decay and the
  /// policy degenerates toward evict-lowest-marginal-tenant.
  bool debit_survivors = true;
  /// Fig. 3 step bumping the victim tenant's pages. Off ⇒ stale marginals.
  bool bump_victim_tenant = true;
  /// When > 0, tenant miss counts reset every `window_length` requests and
  /// all budgets re-base — the per-window SLA deployment mode of the SQLVM
  /// companion paper [14], where f_i is charged on misses per accounting
  /// window rather than over the whole run. 0 = the paper's whole-run model.
  std::size_t window_length = 0;
};

/// Factory producing independent ConvexCachingPolicy instances with the
/// given configuration — the public per-shard/per-pool instantiation path
/// (the sharded frontend spawns one ALG-DISCRETE per shard through this,
/// with no access to policy internals).
[[nodiscard]] PolicyFactory make_convex_factory(
    ConvexCachingOptions options = {});

class ConvexCachingPolicy final : public ReplacementPolicy {
 public:
  /// Dead postings tolerated per live page before the global heap compacts.
  static constexpr std::size_t kCompactionFactor = 4;
  /// Heaps smaller than this never compact (rebuild overhead dominates).
  static constexpr std::size_t kCompactionMinimum = 64;

  explicit ConvexCachingPolicy(ConvexCachingOptions options = {});

  void reset(const PolicyContext& ctx) override;
  void on_hit(const Request& request, TimeStep time) override;
  [[nodiscard]] PageId choose_victim(const Request& request,
                                     TimeStep time) override;
  void on_evict(PageId victim, TenantId owner, TimeStep time) override;
  void on_insert(const Request& request, TimeStep time) override;
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] PerfCounters perf_counters() const override {
    return counters_;
  }
  [[nodiscard]] CacheState* residency() override { return &residency_; }

  /// Effective budget of a resident page (test/diagnostic hook).
  [[nodiscard]] double budget(PageId page) const;

  /// Evictions charged to each tenant so far — m(i,t) in the paper.
  [[nodiscard]] const std::vector<std::uint64_t>& tenant_evictions()
      const noexcept {
    return evictions_;
  }

  /// Cumulative dual mass Σ B(victim) attributed to each tenant (summed
  /// over that tenant's evictions). ALG-CONT raises y_t by exactly the
  /// victim's budget at each eviction, so this vector is the running dual
  /// objective of the Fig. 2 primal–dual pair, split by victim owner — the
  /// raw material of the obs::CostTracker online lower bound on OPT
  /// (DESIGN.md §13). Maintained unconditionally: one double add on the
  /// eviction path, nothing on hits.
  [[nodiscard]] const std::vector<double>& dual_mass_by_tenant()
      const noexcept {
    return dual_mass_;
  }

  /// True when the accumulated dual mass is a feasible-dual certificate:
  /// the paper's whole-run model (no accounting windows — rollovers re-base
  /// budgets and orphan earlier y-mass) with the analytic Fig. 3 marginals
  /// and both debit/bump steps enabled (the ablations break the
  /// budget-equals-residual correspondence).
  [[nodiscard]] bool dual_certificate_valid() const noexcept {
    return options_.window_length == 0 &&
           options_.derivative == DerivativeMode::kAnalytic &&
           options_.debit_survivors && options_.bump_victim_tenant;
  }

  /// Live entry count of the global index (diagnostic).
  [[nodiscard]] std::size_t index_size() const noexcept {
    return global_.size();
  }

  /// The run configuration (audit layer + diagnostics).
  [[nodiscard]] const ConvexCachingOptions& options() const noexcept {
    return options_;
  }

  // -- per-tenant freshness signals (seqlock residency mirror) --------------
  //
  // ShardedCache's lock-free hit path serves a hit without the mutex only
  // when re-freezing the page's budget would store a bit-identical key
  // (seqlock_table.hpp). The two signals below report, for the most recent
  // on_evict, which freshness classes that eviction actually invalidated:

  /// The last eviction shifted the shared survivor-debit offset (victim
  /// budget ≠ 0 with debiting on) — every tenant's re-freeze value moved.
  [[nodiscard]] bool last_evict_moved_offset() const noexcept {
    return last_evict_moved_offset_;
  }
  /// The last eviction moved the victim tenant's next-marginal value
  /// (delta ≠ 0) — only that tenant's re-freeze values moved. Zero-budget,
  /// zero-delta evictions (generational steady state under linear costs)
  /// report false on both signals and stale nothing.
  [[nodiscard]] bool last_evict_refreshed_tenant() const noexcept {
    return last_evict_refreshed_tenant_;
  }

 private:
  /// The `src/audit` shadow-checker reads the index internals (postings,
  /// offsets, bumps) to verify them against naive recomputation; the test
  /// peer additionally *corrupts* them to prove each audit fires.
  friend class ConvexCachingAuditor;
  friend struct AuditTestPeer;
  /// Marginal cost of tenant i's next miss given its current eviction count.
  [[nodiscard]] double next_marginal(TenantId tenant) const;

  /// Effective budget from a stored key:
  ///   eff = key + tenant_bump_[i] − offset_
  /// where key was frozen as (B_set − tenant_bump_at_set + offset_at_set).
  [[nodiscard]] double effective(double key, TenantId tenant) const {
    return key + tenant_bump_[tenant] - offset_;
  }

  /// The key a touch of one of `tenant`'s pages freezes right now:
  /// (f'(m+1) − bump) + offset, the same FP expression in the same order
  /// as the literal Fig. 3 refresh.
  [[nodiscard]] double refreeze_key(TenantId tenant) const {
    return refreeze_[tenant] + offset_;
  }
  /// Recomputes `refreeze_[tenant]` from the tenant's next marginal; call
  /// wherever its miss count or bump moves. Every marginal enters the
  /// index here, so this is where a non-finite one (an overflowing f') is
  /// rejected before it turns keys into inf/NaN.
  void refresh_refreeze(TenantId tenant, double next_marginal);

  /// One posting in the cross-tenant index. `score` is the cross-tenant
  /// comparison value `key + tenant_bump_[tenant]` frozen at push time
  /// (the global `offset_` shifts every page equally and is left out). A
  /// posting is current when its score equals the page's current
  /// `key + bump`; a lower one is re-posted when popped, a higher one is
  /// dropped (a lower posting of the same page exists).
  struct IndexEntry {
    double score;
    PageId page;
    TenantId tenant;
    friend bool operator>(const IndexEntry& a, const IndexEntry& b) {
      if (a.score != b.score) return a.score > b.score;
      return a.page > b.page;
    }
  };
  /// Postings live in a bump-pointer arena: pushes and compaction rebuilds
  /// recycle the arena's retained blocks instead of hitting the heap, so
  /// the steady-state eviction path performs zero allocations (the e6
  /// `--alloc-stats` CI gate asserts exactly this).
  using IndexAlloc = util::ArenaAllocator<IndexEntry>;
  using IndexVector = std::vector<IndexEntry, IndexAlloc>;
  using GlobalHeap =
      std::priority_queue<IndexEntry, IndexVector, std::greater<IndexEntry>>;

  [[nodiscard]] IndexAlloc index_alloc() noexcept {
    return IndexAlloc(&index_arena_);
  }
  /// An empty arena-backed heap (never default-construct GlobalHeap — that
  /// would silently fall back to the global heap allocator).
  [[nodiscard]] GlobalHeap empty_heap() {
    return GlobalHeap(std::greater<IndexEntry>{}, IndexVector(index_alloc()));
  }

  void push_global(PageId page, TenantId tenant, double key);

  /// Rebuilds the global heap from the resident set when dead postings
  /// outnumber live pages by `kCompactionFactor`. Hits never push on
  /// convex runs, so this only fires where keys fall (non-convex costs,
  /// FP-ulp refreshes) or postings of re-inserted pages pile up.
  void maybe_compact();

  /// Rebuilds the global heap from the resident set at current
  /// scores: compaction, window rollover and the non-convex repair (a
  /// tenant's bump *decreased*, so its postings over-estimate).
  void rebuild_index();

  /// Windowed mode: on crossing a window boundary, resets miss counts and
  /// re-bases every resident budget (O(k), once per window).
  void maybe_roll_window(TimeStep time);

  ConvexCachingOptions options_;
  const std::vector<CostFunctionPtr>* costs_ = nullptr;

  double offset_ = 0.0;                  ///< cumulative global debit
  std::vector<double> tenant_bump_;      ///< cumulative per-tenant bumps
  /// next_marginal(i) − tenant_bump_[i] per tenant: a touch freezes
  /// key = refreeze_[i] + offset_ (see refreeze_key).
  std::vector<double> refreeze_;
  std::vector<std::uint64_t> evictions_; ///< m(i, t)
  std::vector<double> dual_mass_;        ///< Σ B(victim) per victim owner
  // Declaration order matters: the arena must outlive (so: precede) every
  // container whose allocator points into it.
  util::Arena index_arena_;  ///< backs the global heap's postings
  /// One heap, all tenants (arena-backed — see IndexVector).
  GlobalHeap global_{std::greater<IndexEntry>{},
                     IndexVector(IndexAlloc(&index_arena_))};
  CacheState residency_{1};  ///< owner + frozen key; sized by reset()
  bool last_evict_moved_offset_ = false;
  bool last_evict_refreshed_tenant_ = false;
  std::size_t current_window_ = 0;
  PerfCounters counters_;
};

}  // namespace ccc
