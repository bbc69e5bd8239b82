#include "core/convex_caching.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "util/check.hpp"

namespace ccc {

namespace {

/// Marginal cost of the (m+1)-st miss of a tenant with cost function f.
double marginal_at(const CostFunction& f, std::uint64_t m,
                   DerivativeMode mode) {
  const double x = static_cast<double>(m);
  if (mode == DerivativeMode::kAnalytic) return f.derivative(x + 1.0);
  return f.value(x + 1.0) - f.value(x);
}

}  // namespace

PolicyFactory make_convex_factory(ConvexCachingOptions options) {
  return [options] { return std::make_unique<ConvexCachingPolicy>(options); };
}

ConvexCachingPolicy::ConvexCachingPolicy(ConvexCachingOptions options)
    : options_(options) {}

void ConvexCachingPolicy::reset(const PolicyContext& ctx) {
  CCC_REQUIRE(ctx.costs != nullptr,
              "ConvexCachingPolicy needs per-tenant cost functions");
  CCC_REQUIRE(ctx.costs->size() >= ctx.num_tenants,
              "need one cost function per tenant");
  costs_ = ctx.costs;
  offset_ = 0.0;
  tenant_bump_.assign(ctx.num_tenants, 0.0);
  evictions_.assign(ctx.num_tenants, 0);
  refreeze_.assign(ctx.num_tenants, 0.0);
  for (TenantId t = 0; t < ctx.num_tenants; ++t)
    refresh_refreeze(t, next_marginal(t));
  dual_mass_.assign(ctx.num_tenants, 0.0);
  // Drop the old postings *before* rewinding their arena (their storage
  // dangles the moment the arena resets), then recycle the blocks.
  global_ = empty_heap();
  index_arena_.reset();
  residency_ = CacheState(ctx.capacity);
  last_evict_moved_offset_ = false;
  last_evict_refreshed_tenant_ = false;
  current_window_ = 0;
  counters_ = PerfCounters{};
}

void ConvexCachingPolicy::rebuild_index() {
  ++counters_.index_rebuilds;
  // Compaction boundary = arena epoch boundary: destroy the old postings,
  // rewind the arena, and build the replacement out of the recycled blocks.
  // After the first few cycles the block set plateaus at the heap's
  // high-water footprint and this path never touches the global heap
  // allocator again.
  global_ = empty_heap();
  index_arena_.reset();
  IndexVector entries(index_alloc());
  entries.reserve(residency_.size());
  for (const auto& [page, record] : residency_.pages())
    entries.push_back(IndexEntry{record.key + tenant_bump_[record.tenant],
                                 page, record.tenant});
  global_ = GlobalHeap(std::greater<IndexEntry>{}, std::move(entries));
}

void ConvexCachingPolicy::maybe_roll_window(TimeStep time) {
  if (options_.window_length == 0) return;
  const std::size_t window = time / options_.window_length;
  if (window == current_window_) return;
  current_window_ = window;
  ++counters_.window_rollovers;
  // New accounting window: every tenant's miss count restarts at zero, so
  // every marginal — and therefore every budget — re-bases.
  std::fill(evictions_.begin(), evictions_.end(), 0);
  std::fill(tenant_bump_.begin(), tenant_bump_.end(), 0.0);
  offset_ = 0.0;
  // Re-base every resident budget. With offset and bumps at zero a
  // re-frozen key is the tenant's marginal, i.e. its re-freeze base: the
  // per-tenant marginals (virtual calls) land in that dense table, so the
  // page pass is a flat, branchless select over the residency table's SoA
  // slot arrays — autovectorizable, unlike a proxy-iterator loop with an
  // indirect call per resident page.
  for (TenantId t = 0; t < refreeze_.size(); ++t)
    refresh_refreeze(t, next_marginal(t));
  util::FlatMap<Resident>& table = residency_.pages();
  const double* marginal = refreeze_.data();
  const std::uint64_t* keys = table.key_data();
  Resident* vals = table.value_data();
  const std::size_t slots = refreeze_.empty() ? 0 : table.slot_count();
  for (std::size_t i = 0; i < slots; ++i) {
    // Dead slots select index 0 and write their own key back, keeping the
    // loop body branch-free (a dead slot's tenant field may be stale).
    const bool live = keys[i] != util::FlatMap<Resident>::kEmptyKey;
    const std::size_t t = live ? vals[i].tenant : 0;
    vals[i].key = live ? marginal[t] : vals[i].key;
  }
  rebuild_index();
}

double ConvexCachingPolicy::next_marginal(TenantId tenant) const {
  return marginal_at(*(*costs_)[tenant], evictions_[tenant],
                     options_.derivative);
}

void ConvexCachingPolicy::refresh_refreeze(TenantId tenant,
                                           double next_marginal) {
  CCC_CHECK(std::isfinite(next_marginal),
            "tenant " + std::to_string(tenant) + "'s marginal f'(m+1) is " +
                std::to_string(next_marginal) + " at m = " +
                std::to_string(evictions_[tenant]) +
                " evictions; ALG-DISCRETE needs finite marginals");
  refreeze_[tenant] = next_marginal - tenant_bump_[tenant];
}

void ConvexCachingPolicy::push_global(PageId page, TenantId tenant,
                                      double key) {
  global_.push(IndexEntry{key + tenant_bump_[tenant], page, tenant});
}

void ConvexCachingPolicy::maybe_compact() {
  if (global_.size() < kCompactionMinimum) return;
  if (global_.size() <= kCompactionFactor * residency_.size()) return;
  rebuild_index();
}

void ConvexCachingPolicy::on_hit(const Request& request, TimeStep time) {
  maybe_roll_window(time);
  // Fig. 3, first bullet: refresh B(p_t) on every access — frozen against
  // the current offsets, so the key only moves when they did.
  const double key = refreeze_key(request.tenant);
  const auto it = residency_.pages().find(request.page);
  CCC_CHECK(it != residency_.pages().end(),
            "ConvexCaching hit on an untracked page");
  double& stored = it->second.key;
  if (key == stored) return;
  const bool fell = key < stored;
  stored = key;
  // A raised key leaves the page's postings under-estimating, which the
  // index absorbs lazily (choose_victim re-posts). A lowered one would make
  // them over-estimate, so post it now; convex runs only get here by an
  // FP ulp.
  if (fell) {
    push_global(request.page, request.tenant, key);
    maybe_compact();
  }
}

PageId ConvexCachingPolicy::choose_victim(const Request& /*request*/,
                                          TimeStep time) {
  maybe_roll_window(time);
  ++counters_.evictions;
  // Lazy-index invariant: every resident page has at least one posting
  // whose score is ≤ its current (key + bump) — postings go stale only by
  // under-estimating (hits raise keys and convex bumps only grow; a falling
  // key is posted eagerly and a shrinking bump rebuilds the index).
  // Popping in (score, page) order therefore surfaces the true minimum —
  // with the paper's lowest-page-id tie-break — as the first posting whose
  // score equals its page's current score.
  while (!global_.empty()) {
    const IndexEntry top = global_.top();
    const auto it = residency_.pages().find(top.page);
    if (it != residency_.pages().end() && it->second.tenant == top.tenant) {
      const double key = it->second.key;
      const double score = key + tenant_bump_[top.tenant];
      if (score == top.score) return top.page;
      global_.pop();
      ++counters_.heap_pops;
      ++counters_.stale_skips;
      // Under-estimating: the key rose or the tenant was bumped since this
      // posting — re-post at the current score and keep looking. Within one
      // call scores are constant, so each posting is re-posted at most once
      // and the loop terminates. Over-estimating: a lower posting of this
      // page exists (an eager fall), so this one is dropped.
      if (score > top.score) push_global(top.page, top.tenant, key);
      continue;
    }
    // Page evicted: nothing needs this posting.
    global_.pop();
    ++counters_.heap_pops;
    ++counters_.stale_skips;
  }
  CCC_CHECK(false, "ConvexCaching asked for a victim with an empty cache");
  return 0;  // unreachable
}

void ConvexCachingPolicy::on_evict(PageId victim, TenantId owner,
                                   TimeStep /*time*/) {
  const double victim_budget = effective(residency_.erase(victim).key, owner);
  // The dual variable y_t of ALG-CONT rises by exactly B(victim) at this
  // eviction (DESIGN.md §13); bank it against the victim's owner so the
  // cost tracker can assemble its online lower bound without re-walking
  // any state. One add — hits never reach this path.
  dual_mass_[owner] += victim_budget;

  // Fig. 3: debit every surviving page by B(p) — one offset update. A
  // zero victim budget leaves the offset bit-identical, so survivors'
  // keys still re-freeze to the same value: report it as a no-move so the
  // seqlock mirror keeps every other tenant's stamps fresh.
  last_evict_moved_offset_ = false;
  if (options_.debit_survivors) {
    offset_ += victim_budget;
    last_evict_moved_offset_ = victim_budget != 0.0;
  }
  // Keys freeze against the offset, and Σ B(victim) outgrows f' itself.
  CCC_CHECK(std::isfinite(victim_budget) && std::isfinite(offset_),
            "the survivor debit overflowed at eviction " +
                std::to_string(counters_.evictions));

  // The victim's tenant just incurred a miss: m(owner) grows, and the
  // marginal of its *next* miss moves from f'(m+1) to f'(m+2).
  const std::uint64_t m_before = evictions_[owner]++;
  const CostFunction& f = *(*costs_)[owner];
  const double next = marginal_at(f, m_before + 1, options_.derivative);
  const double delta = next - marginal_at(f, m_before, options_.derivative);
  // The owner's re-freeze inputs moved iff its next-marginal value did:
  // with a zero delta both the marginal and the bump (when enabled) are
  // bit-identical to before, so the owner's keys still re-freeze exactly
  // (linear costs hit this on every eviction). With a nonzero delta the
  // algebraic cancellation (marginal+δ) − (bump+δ) is not FP-bit-exact,
  // so the owner's stamps must go stale.
  last_evict_refreshed_tenant_ = delta != 0.0;
  if (options_.bump_victim_tenant) {
    tenant_bump_[owner] += delta;
    // Convex costs only grow the bump, which the global index absorbs
    // lazily; a shrinking bump (§2.5 non-convex costs) makes existing
    // postings over-estimate, so rebuild the index at the current scores
    // (the same repair compaction and window rollover use).
    if (delta < 0.0) rebuild_index();
  }
  refresh_refreeze(owner, next);
}

void ConvexCachingPolicy::on_insert(const Request& request, TimeStep time) {
  maybe_roll_window(time);
  // Fig. 3: B(p_t) ← f'(m+1). Inserted after the offset/bump updates of the
  // same step, so the new page is exempt from this step's debit — exactly
  // the "p' ∉ {p, p_t}" exclusion. A new page needs its own posting.
  const double key = refreeze_key(request.tenant);
  residency_.insert(request.page, request.tenant, key);
  push_global(request.page, request.tenant, key);
  maybe_compact();
}

double ConvexCachingPolicy::budget(PageId page) const {
  const auto it = residency_.pages().find(page);
  CCC_REQUIRE(it != residency_.pages().end(),
              "budget() of a non-resident page");
  return effective(it->second.key, it->second.tenant);
}

std::string ConvexCachingPolicy::name() const {
  std::string n = "ConvexCaching";
  if (options_.derivative == DerivativeMode::kDiscreteMarginal)
    n += "[discrete]";
  if (!options_.debit_survivors) n += "[no-debit]";
  if (!options_.bump_victim_tenant) n += "[no-bump]";
  if (options_.window_length > 0)
    n += "[w=" + std::to_string(options_.window_length) + "]";
  return n;
}

}  // namespace ccc
