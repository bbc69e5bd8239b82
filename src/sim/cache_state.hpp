#pragma once
/// \file cache_state.hpp
/// \brief The shared cache of §1.2: at most `k` resident pages, each owned
///        by a tenant. Pure bookkeeping — replacement decisions live in
///        ReplacementPolicy implementations.
///        A policy with per-page state (Fig. 3's budgets, which exist
///        exactly while a page is resident) keeps it in the record's `key`
///        and lends the table to the session (ReplacementPolicy::residency).

#include "trace/types.hpp"
#include "util/flat_map.hpp"

namespace ccc {

struct Resident {
  double key = 0.0;  ///< the owning policy's per-page value
  TenantId tenant = 0;
};

class CacheState {
 public:
  explicit CacheState(std::size_t capacity);

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] std::size_t size() const noexcept { return resident_.size(); }
  [[nodiscard]] bool full() const noexcept { return size() >= capacity_; }
  [[nodiscard]] bool contains(PageId page) const {
    return resident_.contains(page);
  }

  /// Owner of a resident page; throws if not resident.
  [[nodiscard]] TenantId owner(PageId page) const;

  /// Inserts a page. Throws if already resident or if the cache is full
  /// (the simulator must evict first — this enforces the §1.2 constraint).
  void insert(PageId page, TenantId tenant, double key = 0.0);

  /// Evicts a page and returns its record; throws if not resident.
  Resident erase(PageId page);

  /// Changes the capacity (shard rebalancing). The resident set is left
  /// untouched, so after a shrink `size()` may temporarily exceed the new
  /// capacity; the owner must drain via erase() before the next insert()
  /// (SimulatorSession::resize does exactly that).
  void set_capacity(std::size_t capacity);

  /// Hint that `page` is about to be probed (batch probe-ahead). Touches
  /// only the hash-table key line; a no-op on unknown compilers.
  void prefetch(PageId page) const { resident_.prefetch(page); }

  /// Resident pages and their records (iteration order unspecified).
  [[nodiscard]] const util::FlatMap<Resident>& pages() const noexcept {
    return resident_;
  }
  /// For the owning policy's key passes; use insert/erase for residency.
  [[nodiscard]] util::FlatMap<Resident>& pages() noexcept {
    return resident_;
  }

  void clear() noexcept { resident_.clear(); }

 private:
  std::size_t capacity_;
  util::FlatMap<Resident> resident_;
};

}  // namespace ccc
