#include "audit/audit.hpp"

#include <algorithm>
#include <cmath>
#include <queue>
#include <sstream>

#include "core/invariants.hpp"
#include "core/primal_dual.hpp"
#include "util/check.hpp"

namespace ccc {

namespace {

/// Read-only view of a std::priority_queue's underlying container (the
/// standard protected-member access idiom). The audit needs to *enumerate*
/// postings, which the queue interface deliberately hides.
template <typename T, typename Container, typename Compare>
const Container& heap_container(
    const std::priority_queue<T, Container, Compare>& q) {
  struct Peek : std::priority_queue<T, Container, Compare> {
    static const Container& get(
        const std::priority_queue<T, Container, Compare>& base) {
      return base.*&Peek::c;
    }
  };
  return Peek::get(q);
}

std::string page_str(PageId page) { return std::to_string(page); }

}  // namespace

std::string AuditReport::summary() const {
  std::ostringstream os;
  os << "audit: " << steps_observed << " steps, " << victim_checks
     << " victim checks, " << budget_checks << " budget checks, "
     << index_checks << " index checks, " << shadow_checks
     << " shadow replays, " << violations << " violations";
  if (!failures.empty())
    os << "; first: [" << failures.front().check << "] t="
       << failures.front().time << " " << failures.front().detail;
  return os.str();
}

ConvexCachingAuditor::ConvexCachingAuditor(AuditConfig config)
    : config_(config) {
  CCC_REQUIRE(config_.step_cadence > 0, "step_cadence must be positive");
  CCC_REQUIRE(config_.eviction_cadence > 0,
              "eviction_cadence must be positive");
}

void ConvexCachingAuditor::on_reset(const PolicyContext& ctx) {
  report_ = AuditReport{};
  evictions_seen_ = 0;
  observed_.clear();
  shadow_overflow_ = false;
  capacity_ = ctx.capacity;
  num_tenants_ = ctx.num_tenants;
  costs_ = ctx.costs;
  all_convex_ = costs_ != nullptr;
  if (costs_ != nullptr)
    for (std::uint32_t t = 0; t < num_tenants_; ++t)
      if (!(*costs_)[t]->is_convex()) all_convex_ = false;
}

const ConvexCachingPolicy* ConvexCachingAuditor::resolve(
    ReplacementPolicy& policy) const {
  if (target_ != nullptr) return target_;
  return dynamic_cast<const ConvexCachingPolicy*>(&policy);
}

void ConvexCachingAuditor::violation(const std::string& check,
                                     const std::string& detail,
                                     TimeStep time) {
  ++report_.violations;
  if (report_.failures.size() < config_.max_recorded_failures)
    report_.failures.push_back(AuditViolation{check, detail, time});
  if (config_.fail_fast)
    throw std::logic_error("audit violation [" + check + "] at t=" +
                           std::to_string(time) + ": " + detail);
}

void ConvexCachingAuditor::on_victim_chosen(const Request& /*request*/,
                                            PageId victim,
                                            const CacheState& /*cache*/,
                                            ReplacementPolicy& policy,
                                            TimeStep time) {
  ++evictions_seen_;
  if (!config_.check_victim_minimality) return;
  if (evictions_seen_ % config_.eviction_cadence != 0) return;
  const ConvexCachingPolicy* ccp = resolve(policy);
  if (ccp == nullptr) return;
  check_victim_minimality(*ccp, victim, time);
}

void ConvexCachingAuditor::on_step(const StepEvent& event,
                                   const CacheState& cache,
                                   ReplacementPolicy& policy, TimeStep time) {
  ++report_.steps_observed;
  if (config_.shadow_alg_cont) {
    if (observed_.size() < config_.max_shadow_requests)
      observed_.push_back(event.request);
    else
      shadow_overflow_ = true;
  }
  if (report_.steps_observed % config_.step_cadence != 0) return;
  const ConvexCachingPolicy* ccp = resolve(policy);
  if (ccp == nullptr) return;
  audit_now(*ccp, cache, time);
}

void ConvexCachingAuditor::on_run_end(const CacheState& /*cache*/,
                                      ReplacementPolicy& policy) {
  shadow_check(policy);
}

void ConvexCachingAuditor::audit_now(const ConvexCachingPolicy& policy,
                                     const CacheState& cache, TimeStep time) {
  // The other checks index per-tenant state by each record's tenant.
  if (!check_residency(policy, cache, time)) return;
  if (config_.check_budget_bounds) check_budget_bounds(policy, time);
  if (config_.check_index) check_index(policy, time);
}

bool ConvexCachingAuditor::check_residency(const ConvexCachingPolicy& policy,
                                           const CacheState& cache,
                                           TimeStep time) {
  const std::uint64_t before = report_.violations;
  const CacheState& table = policy.residency_;
  if (&cache != &table)
    violation("residency", "the session reads a second residency table", time);
  // Primal feasibility (1a): at most k pages resident.
  if (table.size() > table.capacity())
    violation("residency",
              std::to_string(table.size()) + " pages resident, k = " +
                  std::to_string(table.capacity()),
              time);
  const std::size_t tenants = policy.evictions_.size();
  for (const auto& [page, record] : table.pages())
    if (record.tenant >= tenants)
      violation("residency",
                "page " + page_str(page) + " owned by tenant " +
                    std::to_string(record.tenant),
                time);
  return report_.violations == before;
}

void ConvexCachingAuditor::check_budget_bounds(
    const ConvexCachingPolicy& policy, TimeStep time) {
  const double tol = config_.tolerance;
  for (const auto& [page, state] : policy.residency_.pages()) {
    ++report_.budget_checks;
    const double eff = policy.effective(state.key, state.tenant);
    if (!std::isfinite(eff)) {
      violation("budget-bounds",
                "non-finite budget for page " + page_str(page), time);
      continue;
    }
    // The bounds are only a theorem for convex costs (§2.5 waives them).
    if (!all_convex_) continue;
    if (eff < -tol) {
      violation("budget-bounds",
                "B(" + page_str(page) + ") = " + std::to_string(eff) +
                    " < 0 — invariant (3a) analogue violated",
                time);
      continue;
    }
    const double marginal = policy.next_marginal(state.tenant);
    if (eff > marginal + tol)
      violation("budget-bounds",
                "B(" + page_str(page) + ") = " + std::to_string(eff) +
                    " exceeds next marginal f'(m+1) = " +
                    std::to_string(marginal) + " of tenant " +
                    std::to_string(state.tenant),
                time);
  }
}

void ConvexCachingAuditor::check_victim_minimality(
    const ConvexCachingPolicy& policy, PageId victim, TimeStep time) {
  ++report_.victim_checks;
  const auto& table = policy.residency_.pages();
  const auto victim_it = table.find(victim);
  if (victim_it == table.end()) {
    violation("victim-minimality",
              "victim " + page_str(victim) + " is not tracked as resident",
              time);
    return;
  }
  // Naive Fig. 3 recomputation: argmin of effective budget, lowest page id
  // on ties — exactly what the O(log k) index must reproduce.
  bool found = false;
  double best_eff = 0.0;
  PageId best_page = 0;
  for (const auto& [page, state] : table) {
    const double eff = policy.effective(state.key, state.tenant);
    if (!found || eff < best_eff || (eff == best_eff && page < best_page)) {
      found = true;
      best_eff = eff;
      best_page = page;
    }
  }
  const double victim_eff =
      policy.effective(victim_it->second.key, victim_it->second.tenant);
  if (best_page != victim)
    violation("victim-minimality",
              "index chose page " + page_str(victim) + " (B=" +
                  std::to_string(victim_eff) +
                  ") but the naive scan finds page " + page_str(best_page) +
                  " (B=" + std::to_string(best_eff) + ")",
              time);
  // Invariant (1c): y_t rises by B(victim), so B(victim) must be ≥ 0.
  if (all_convex_ && victim_eff < -config_.tolerance)
    violation("dual-nonnegativity",
              "eviction would raise y_t by the negative amount B(" +
                  page_str(victim) + ") = " + std::to_string(victim_eff),
              time);
}

void ConvexCachingAuditor::check_index(const ConvexCachingPolicy& policy,
                                       TimeStep time) {
  ++report_.index_checks;
  const double tol = config_.tolerance;
  if (!std::isfinite(policy.offset_))
    violation("index-state", "global debit offset is not finite", time);
  for (std::size_t t = 0; t < policy.tenant_bump_.size(); ++t) {
    const auto tenant = static_cast<TenantId>(t);
    if (!std::isfinite(policy.tenant_bump_[t]))
      violation("index-state",
                "bump of tenant " + std::to_string(t) + " is not finite",
                time);
    // The cached re-freeze base must be the expression a literal Fig. 3
    // refresh evaluates, bit for bit — else hits freeze wrong keys.
    const double refreeze =
        policy.next_marginal(tenant) - policy.tenant_bump_[t];
    if (!(policy.refreeze_[t] == refreeze))
      violation("index-state",
                "cached re-freeze base of tenant " + std::to_string(t) +
                    " is " + std::to_string(policy.refreeze_[t]) +
                    ", next marginal − bump = " + std::to_string(refreeze),
                time);
  }

  const auto& entries = heap_container(policy.global_);
  const auto& table = policy.residency_.pages();
  // Stale-fraction bound: dead postings are compacted 4:1, so the heap can
  // never grow unboundedly relative to the resident set.
  const std::size_t bound =
      std::max(ConvexCachingPolicy::kCompactionMinimum,
               ConvexCachingPolicy::kCompactionFactor * table.size());
  if (entries.size() > bound)
    violation("index-compaction",
              "global heap holds " + std::to_string(entries.size()) +
                  " postings for " + std::to_string(table.size()) +
                  " resident pages (bound " + std::to_string(bound) + ")",
              time);

  // Lazy-index invariant: each resident page has a posting (same page and
  // tenant) whose score is ≤ its current key + bump. Postings may
  // under-estimate — a raised key or a grown bump is re-posted when it
  // surfaces — but the page's best posting must not over-estimate, or the
  // heap could surface a wrong minimum before it. Coverage is the exact
  // rule the argmin needs; soundness flags an over-estimate beyond the
  // tolerance.
  // The page → best-score map is scratch kept across calls, so a sampled
  // step allocates nothing once it has grown to the resident set.
  util::FlatMap<double>& min_score = min_score_scratch_;
  min_score.clear();
  min_score.reserve(table.size());
  for (const auto& entry : entries) {
    const auto it = table.find(entry.page);
    if (it == table.end() || it->second.tenant != entry.tenant)
      continue;  // dead posting — dropped lazily by the index, fine
    const auto best = min_score.find(entry.page);
    if (best == min_score.end())
      min_score.insert_or_assign(entry.page, entry.score);
    else
      best->second = std::min(best->second, entry.score);
  }
  for (const auto& [page, state] : table) {
    const double current = state.key + policy.tenant_bump_[state.tenant];
    const auto it = min_score.find(page);
    if (it == min_score.end() || it->second > current)
      violation("index-coverage",
                "resident page " + page_str(page) +
                    " has no posting scoring ≤ key + bump = " +
                    std::to_string(current) + " in the global heap",
                time);
    if (it != min_score.end() && it->second > current + tol)
      violation("index-soundness",
                "best posting of page " + page_str(page) + " scores " +
                    std::to_string(it->second) + " > key + bump = " +
                    std::to_string(current) +
                    " — the lazy heap would rank it too low",
                time);
  }
}

void ConvexCachingAuditor::shadow_check(ReplacementPolicy& policy) {
  if (!config_.shadow_alg_cont) return;
  if (costs_ == nullptr || observed_.empty() || shadow_overflow_) return;
  if (!all_convex_) return;  // §2.3 invariants are a convex-cost theorem

  Trace trace(num_tenants_);
  try {
    for (const Request& r : observed_) trace.append(r);
  } catch (const std::exception& e) {
    violation("shadow-trace",
              std::string("observed request stream is not a valid trace: ") +
                  e.what(),
              observed_.size());
    return;
  }

  const PrimalDualRun run = run_alg_cont(trace, capacity_, *costs_);
  const InvariantReport inv =
      check_invariants(run, trace, capacity_, *costs_);
  ++report_.shadow_checks;
  if (!inv.ok(config_.tolerance)) {
    std::string detail = "ALG-CONT replay violates §2.3:";
    for (const std::string& f : inv.failures) detail += " " + f;
    violation("alg-cont-invariants", detail, trace.size());
  }

  if (!config_.shadow_compare_evictions) return;
  const ConvexCachingPolicy* ccp = resolve(policy);
  if (ccp == nullptr) return;
  const ConvexCachingOptions& opt = ccp->options();
  // The discrete ≡ continuous eviction theorem needs Fig. 3 as written:
  // analytic derivative, whole-run accounting, both budget updates on.
  if (opt.derivative != DerivativeMode::kAnalytic || opt.window_length != 0 ||
      !opt.debit_survivors || !opt.bump_victim_tenant)
    return;
  const std::vector<std::uint64_t>& discrete = ccp->tenant_evictions();
  for (std::uint32_t t = 0; t < num_tenants_; ++t) {
    const std::uint64_t cont = run.final_m[t];
    if (discrete[t] != cont)
      violation("shadow-evictions",
                "tenant " + std::to_string(t) + ": ALG-DISCRETE evicted " +
                    std::to_string(discrete[t]) + " pages, ALG-CONT " +
                    std::to_string(cont),
                trace.size());
  }
}

}  // namespace ccc
