#include "sim/cache_state.hpp"

#include "util/check.hpp"

namespace ccc {

CacheState::CacheState(std::size_t capacity) : capacity_(capacity) {
  CCC_REQUIRE(capacity > 0, "cache capacity must be positive");
  resident_.reserve(capacity);
}

TenantId CacheState::owner(PageId page) const {
  const auto it = resident_.find(page);
  CCC_REQUIRE(it != resident_.end(), "page is not resident");
  return it->second.tenant;
}

void CacheState::insert(PageId page, TenantId tenant, double key) {
  CCC_REQUIRE(!full(), "inserting into a full cache — evict first");
  CCC_REQUIRE(!resident_.contains(page), "page is already resident");
  resident_.insert_or_assign(page, Resident{key, tenant});
}

Resident CacheState::erase(PageId page) {
  const auto it = resident_.find(page);
  CCC_REQUIRE(it != resident_.end(), "evicting a page that is not resident");
  const Resident record = it->second;
  resident_.erase(it);
  return record;
}

void CacheState::set_capacity(std::size_t capacity) {
  CCC_REQUIRE(capacity > 0, "cache capacity must be positive");
  capacity_ = capacity;
}

}  // namespace ccc
