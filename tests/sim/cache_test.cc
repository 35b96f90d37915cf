/**
 * @file
 * Tests for the cache and TLB models.
 */

#include <gtest/gtest.h>

#include "sim/cache.hh"
#include "util/rng.hh"

namespace wavedyn
{
namespace
{

TEST(Cache, ColdMissThenHit)
{
    Cache c(32, 4, 64, "t");
    EXPECT_FALSE(c.access(0x1000));
    EXPECT_TRUE(c.access(0x1000));
    EXPECT_TRUE(c.access(0x1004)); // same line
    EXPECT_EQ(c.stats().accesses, 3u);
    EXPECT_EQ(c.stats().misses, 1u);
}

TEST(Cache, TagZeroMissesFillsThenHits)
{
    // Address 0 has tag 0 in set 0, the value a never-filled way
    // would hold if tags were stored raw.
    Cache c(32, 4, 64, "t");
    EXPECT_FALSE(c.probe(0x0));
    EXPECT_FALSE(c.access(0x0));
    EXPECT_TRUE(c.probe(0x0));
    EXPECT_TRUE(c.access(0x0));
    EXPECT_EQ(c.stats().misses, 1u);
}

TEST(Cache, ProbeOfNeverFilledSetIsFalse)
{
    Cache c(32, 4, 64, "t");
    c.access(0x40); // fills set 1 only
    for (std::uint64_t addr : {0x0ull, 0x80ull, 0x1000ull, 0x2000ull})
        EXPECT_FALSE(c.probe(addr)) << addr;
    EXPECT_TRUE(c.probe(0x40));
}

TEST(Cache, LineGranularity)
{
    Cache c(32, 4, 64, "t");
    c.access(0x0);
    EXPECT_TRUE(c.access(0x3f));  // last byte of line 0
    EXPECT_FALSE(c.access(0x40)); // next line
}

TEST(Cache, GeometryFromSizeKb)
{
    Cache c(64, 4, 64, "t");
    // 64 KiB / 64 B = 1024 lines; 4-way -> 256 sets.
    EXPECT_EQ(c.sets(), 256u);
    EXPECT_EQ(c.ways(), 4u);
}

TEST(Cache, LruEviction)
{
    // 2-way, 1 set: capacity 2 lines.
    Cache c(1, 2, 512, "t"); // 1 KiB / 512 B = 2 lines, 2-way -> 1 set
    ASSERT_EQ(c.sets(), 1u);
    c.access(0x0000);     // A miss
    c.access(0x10000);    // B miss
    c.access(0x0000);     // A hit -> B is LRU
    c.access(0x20000);    // C miss, evicts B
    EXPECT_TRUE(c.probe(0x0000));
    EXPECT_FALSE(c.probe(0x10000));
    EXPECT_TRUE(c.probe(0x20000));
}

TEST(Cache, WorkingSetFitsNoCapacityMisses)
{
    Cache c(64, 4, 64, "t");
    // 16 KiB working set walked repeatedly inside a 64 KiB cache.
    for (int pass = 0; pass < 4; ++pass)
        for (std::uint64_t a = 0; a < 16384; a += 64)
            c.access(a);
    // Only the first pass misses.
    EXPECT_EQ(c.stats().misses, 256u);
    EXPECT_EQ(c.stats().accesses, 1024u);
}

TEST(Cache, BiggerCacheFewerMisses)
{
    auto misses_for = [](unsigned size_kb) {
        Cache c(size_kb, 4, 64, "t");
        Rng rng(42);
        // 128 KiB working set, random touches.
        for (int i = 0; i < 40000; ++i)
            c.access(rng.below(128 * 1024));
        return c.stats().misses;
    };
    auto m8 = misses_for(8);
    auto m32 = misses_for(32);
    auto m128 = misses_for(128);
    EXPECT_GT(m8, m32);
    EXPECT_GT(m32, m128);
}

TEST(Cache, ProbeDoesNotDisturb)
{
    Cache c(8, 2, 64, "t");
    c.access(0x100);
    auto before = c.stats().accesses;
    EXPECT_TRUE(c.probe(0x100));
    EXPECT_FALSE(c.probe(0x9990000));
    EXPECT_EQ(c.stats().accesses, before);
}

TEST(Cache, ResetClearsContentsAndStats)
{
    Cache c(8, 2, 64, "t");
    c.access(0x100);
    c.reset();
    EXPECT_EQ(c.stats().accesses, 0u);
    EXPECT_FALSE(c.probe(0x100));
}

TEST(Cache, ResetStatsKeepsContents)
{
    Cache c(8, 2, 64, "t");
    c.access(0x100);
    c.resetStats();
    EXPECT_EQ(c.stats().accesses, 0u);
    EXPECT_TRUE(c.probe(0x100));
    EXPECT_TRUE(c.access(0x100));
}

TEST(Cache, MissRateComputation)
{
    CacheStats s;
    EXPECT_DOUBLE_EQ(s.missRate(), 0.0);
    s.accesses = 10;
    s.misses = 3;
    EXPECT_DOUBLE_EQ(s.missRate(), 0.3);
}

TEST(Cache, ConflictMissesWithLowAssociativity)
{
    // Addresses mapping to the same set thrash a direct-mapped cache
    // but fit in a 4-way one.
    Cache direct(8, 1, 64, "dm");
    Cache assoc4(8, 4, 64, "a4");
    // 8KB/64B = 128 lines. Stride of 128 lines * 64B hits one set.
    std::uint64_t stride = 128 * 64;
    for (int pass = 0; pass < 10; ++pass)
        for (int k = 0; k < 3; ++k) {
            direct.access(k * stride);
            assoc4.access(k * stride);
        }
    EXPECT_GT(direct.stats().misses, assoc4.stats().misses);
    EXPECT_EQ(assoc4.stats().misses, 3u); // compulsory only
}

TEST(Tlb, PageGranularity)
{
    Tlb t(128, 4, 4096, "tlb");
    EXPECT_FALSE(t.access(0x0));
    EXPECT_TRUE(t.access(0xfff));   // same page
    EXPECT_FALSE(t.access(0x1000)); // next page
}

TEST(Tlb, CapacityBehaviour)
{
    Tlb t(16, 4, 4096, "tlb");
    // Touch 16 pages: fits. Second pass all hits.
    for (std::uint64_t p = 0; p < 16; ++p)
        t.access(p * 4096);
    auto misses_first = t.stats().misses;
    for (std::uint64_t p = 0; p < 16; ++p)
        EXPECT_TRUE(t.access(p * 4096));
    EXPECT_EQ(t.stats().misses, misses_first);
}

TEST(Tlb, ThrashesWhenWorkingSetExceedsEntries)
{
    Tlb t(16, 4, 4096, "tlb");
    for (int pass = 0; pass < 3; ++pass)
        for (std::uint64_t p = 0; p < 64; ++p)
            t.access(p * 4096);
    // Way more misses than 64 compulsory ones.
    EXPECT_GT(t.stats().misses, 100u);
}

class CacheSizeSweep : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(CacheSizeSweep, MissRateMonotoneInSize)
{
    unsigned kb = GetParam();
    Cache small(kb, 4, 64, "s");
    Cache big(kb * 4, 4, 64, "b");
    Rng rng(7);
    std::uint64_t ws = static_cast<std::uint64_t>(kb) * 2048; // 2x small
    for (int i = 0; i < 30000; ++i) {
        std::uint64_t a = rng.below(ws);
        small.access(a);
        big.access(a);
    }
    EXPECT_GE(small.stats().misses, big.stats().misses);
}

INSTANTIATE_TEST_SUITE_P(Sizes, CacheSizeSweep,
                         ::testing::Values(8, 16, 32, 64));

} // anonymous namespace
} // namespace wavedyn
