/**
 * @file
 * Tests for the set-associative LRU cache simulator.
 */
#include <gtest/gtest.h>

#include "sim/cache_model.h"

namespace fastgl {
namespace {

TEST(CacheModel, ColdMissThenHit)
{
    sim::CacheModel cache(1024, 64, 2);
    EXPECT_FALSE(cache.access(0));
    EXPECT_TRUE(cache.access(0));
    EXPECT_TRUE(cache.access(63)); // same line
    EXPECT_FALSE(cache.access(64)); // next line
    EXPECT_EQ(cache.hits(), 2u);
    EXPECT_EQ(cache.misses(), 2u);
    EXPECT_DOUBLE_EQ(cache.hit_rate(), 0.5);
}

TEST(CacheModel, LruEvictsOldest)
{
    // 2-way, line 64: one set when capacity = 128.
    sim::CacheModel cache(128, 64, 2);
    cache.access(0 * 128);   // set 0 (only set), way A
    cache.access(1 * 128);   // way B  (note: 128B stride keeps set 0)
    cache.access(0 * 128);   // touch A (A newer than B)
    cache.access(2 * 128);   // evicts B
    EXPECT_TRUE(cache.access(0 * 128));  // A still resident
    EXPECT_FALSE(cache.access(1 * 128)); // B was evicted
}

TEST(CacheModel, FullyAssociativeHoldsWorkingSet)
{
    sim::CacheModel cache(64 * 8, 64, 8); // one set, 8 ways
    for (uint64_t i = 0; i < 8; ++i)
        cache.access(i * 64);
    for (uint64_t i = 0; i < 8; ++i)
        EXPECT_TRUE(cache.access(i * 64));
}

TEST(CacheModel, ThrashingWorkingSetMissesEverything)
{
    sim::CacheModel cache(64 * 4, 64, 4); // holds 4 lines
    // Cyclic access to 8 lines with LRU: always miss after warmup.
    for (int round = 0; round < 4; ++round) {
        for (uint64_t i = 0; i < 8; ++i)
            cache.access(i * 64);
    }
    EXPECT_DOUBLE_EQ(cache.hit_rate(), 0.0);
}

TEST(CacheModel, AccessRangeTouchesEveryLine)
{
    sim::CacheModel cache(1 << 16, 64, 4);
    cache.access_range(10, 300); // spans lines 0..4
    EXPECT_EQ(cache.accesses(), 5u);
    EXPECT_EQ(cache.misses(), 5u);
    cache.access_range(10, 300);
    EXPECT_EQ(cache.hits(), 5u);
}

TEST(CacheModel, AccessRangeZeroBytesIsNoop)
{
    sim::CacheModel cache(1 << 16, 64, 4);
    cache.access_range(0, 0);
    EXPECT_EQ(cache.accesses(), 0u);
}

TEST(CacheModel, ResetClearsContentsAndCounters)
{
    sim::CacheModel cache(1024, 64, 2);
    cache.access(0);
    cache.reset();
    EXPECT_EQ(cache.accesses(), 0u);
    EXPECT_FALSE(cache.access(0)); // cold again
}

/** Property sweep: hit rate bounded and monotone-ish in capacity. */
class CacheCapacityProperty : public ::testing::TestWithParam<int> {};

TEST_P(CacheCapacityProperty, HitRateWithinBounds)
{
    sim::CacheModel cache(uint64_t(GetParam()) * 1024, 128, 8);
    // Strided + repeated access pattern.
    for (uint64_t i = 0; i < 4000; ++i)
        cache.access((i * 384) % (256 * 1024));
    EXPECT_GE(cache.hit_rate(), 0.0);
    EXPECT_LE(cache.hit_rate(), 1.0);
}

INSTANTIATE_TEST_SUITE_P(Capacities, CacheCapacityProperty,
                         ::testing::Values(4, 16, 64, 256));

TEST(CacheHierarchy, LargerL1CapacityNeverHurtsHitRate)
{
    auto run = [](uint64_t l1_bytes) {
        sim::CacheModel cache(l1_bytes, 64, 8);
        for (uint64_t i = 0; i < 20000; ++i)
            cache.access((i * 192) % (1 << 16));
        return cache.hit_rate();
    };
    const double small = run(4 << 10);
    const double large = run(64 << 10);
    EXPECT_GE(large + 1e-9, small);
}

} // namespace
} // namespace fastgl
