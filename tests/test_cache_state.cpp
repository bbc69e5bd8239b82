// Unit tests for the cache residency bookkeeping (sim/cache_state.hpp).
#include "sim/cache_state.hpp"

#include <gtest/gtest.h>

namespace ccc {
namespace {

TEST(CacheState, InsertContainsErase) {
  CacheState cache(2);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.full());
  cache.insert(10, 0);
  EXPECT_TRUE(cache.contains(10));
  EXPECT_EQ(cache.owner(10), 0u);
  cache.insert(20, 1);
  EXPECT_TRUE(cache.full());
  cache.erase(10);
  EXPECT_FALSE(cache.contains(10));
  EXPECT_EQ(cache.size(), 1u);
}

TEST(CacheState, RejectsOverfill) {
  CacheState cache(1);
  cache.insert(1, 0);
  EXPECT_THROW(cache.insert(2, 0), std::invalid_argument);
}

TEST(CacheState, RejectsDuplicateInsert) {
  CacheState cache(2);
  cache.insert(1, 0);
  EXPECT_THROW(cache.insert(1, 0), std::invalid_argument);
}

TEST(CacheState, RejectsEvictingAbsent) {
  CacheState cache(2);
  EXPECT_THROW(cache.erase(5), std::invalid_argument);
}

TEST(CacheState, OwnerOfAbsentThrows) {
  CacheState cache(2);
  EXPECT_THROW((void)cache.owner(5), std::invalid_argument);
}

TEST(CacheState, ZeroCapacityRejected) {
  EXPECT_THROW(CacheState(0), std::invalid_argument);
}

TEST(CacheState, ClearEmptiesResident) {
  CacheState cache(2);
  cache.insert(1, 0);
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.contains(1));
}

TEST(CacheState, PagesExposesOwners) {
  CacheState cache(3);
  cache.insert(1, 0);
  cache.insert(2, 1);
  const auto& pages = cache.pages();
  EXPECT_EQ(pages.size(), 2u);
  EXPECT_EQ(pages.at(1).tenant, 0u);
  EXPECT_EQ(pages.at(2).tenant, 1u);
}

TEST(CacheState, RecordsCarryTheOwnersKey) {
  CacheState cache(2);
  cache.insert(1, 0, 2.5);
  cache.insert(2, 1);
  EXPECT_EQ(cache.pages().at(1).key, 2.5);
  EXPECT_EQ(cache.pages().at(2).key, 0.0);
  const Resident erased = cache.erase(1);
  EXPECT_EQ(erased.key, 2.5);
  EXPECT_EQ(erased.tenant, 0u);
  EXPECT_FALSE(cache.contains(1));
}

}  // namespace
}  // namespace ccc
