/**
 * @file
 * Adversarial tests for the on-disk result cache: bit-exact record
 * round-trips, rejection of truncated / bit-flipped / version-skewed
 * entries (all must read as misses, never errors), concurrent writers
 * racing one key, and GC age/size policy.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include <sys/stat.h>

#include "cache/key.hh"
#include "cache/store.hh"
#include "sim/simulator.hh"

namespace fs = std::filesystem;

namespace wavedyn
{
namespace
{

/** A small but fully populated result (real simulate output). */
SimResult
sampleResult(unsigned salt = 0)
{
    SimConfig cfg = SimConfig::baseline();
    cfg.robSize += salt;
    DvmConfig dvm;
    dvm.enabled = true; // populate dvmStats too
    return simulate(allBenchmarks().front(), cfg, 8, 64, dvm);
}

bool
bitIdentical(const SimResult &a, const SimResult &b)
{
    return encodeSimResult(a, "x") == encodeSimResult(b, "x");
}

class ResultCacheTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        root = (fs::temp_directory_path() /
                ("wavedyn-cache-test-" +
                 std::to_string(reinterpret_cast<std::uintptr_t>(this))))
                   .string();
        fs::remove_all(root);
    }

    void TearDown() override { fs::remove_all(root); }

    std::string root;
};

TEST_F(ResultCacheTest, RecordRoundTripIsBitExact)
{
    SimResult r = sampleResult();
    std::string bytes = encodeSimResult(r, kSimVersion);
    auto back = decodeSimResult(bytes, kSimVersion);
    ASSERT_TRUE(back.has_value());
    EXPECT_TRUE(bitIdentical(*back, r));
}

TEST_F(ResultCacheTest, StoreThenLoadRoundTrips)
{
    ResultCache cache(root);
    CacheKey key{1, 2};
    SimResult r = sampleResult();
    cache.store(key, r);
    auto got = cache.load(key);
    ASSERT_TRUE(got.has_value());
    EXPECT_TRUE(bitIdentical(*got, r));
    ResultCacheStats s = cache.stats();
    EXPECT_EQ(s.stores, 1u);
    EXPECT_EQ(s.hits, 1u);
    EXPECT_EQ(s.misses, 0u);
}

TEST_F(ResultCacheTest, AbsentKeyIsMiss)
{
    ResultCache cache(root);
    EXPECT_FALSE(cache.load(CacheKey{3, 4}).has_value());
    EXPECT_EQ(cache.stats().misses, 1u);
}

TEST_F(ResultCacheTest, ShardedLayout)
{
    ResultCache cache(root);
    CacheKey key = resultCacheKey(allBenchmarks().front(),
                                  SimConfig::baseline(), 8, 64,
                                  DvmConfig{});
    std::string hex = key.hex();
    EXPECT_EQ(cache.entryPath(key), root + "/" + hex.substr(0, 2) +
                                        "/" + hex.substr(2, 2) + "/" +
                                        hex + ".wdr");
}

TEST_F(ResultCacheTest, TruncatedEntryIsMissAtEveryLength)
{
    ResultCache cache(root);
    CacheKey key{5, 6};
    cache.store(key, sampleResult());
    std::string path = cache.entryPath(key);
    std::string full;
    {
        std::ifstream in(path, std::ios::binary);
        full.assign(std::istreambuf_iterator<char>(in),
                    std::istreambuf_iterator<char>());
    }
    ASSERT_GT(full.size(), 64u);
    // Chop at several byte counts across every envelope region.
    for (std::size_t keep :
         {std::size_t{0}, std::size_t{3}, std::size_t{7},
          std::size_t{16}, full.size() / 2, full.size() - 1}) {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(full.data(), static_cast<std::streamsize>(keep));
        out.close();
        EXPECT_FALSE(cache.load(key).has_value()) << "kept " << keep;
    }
    EXPECT_GE(cache.stats().badEntries, 6u);
}

TEST_F(ResultCacheTest, EveryBitFlipIsDetected)
{
    ResultCache cache(root);
    CacheKey key{7, 8};
    cache.store(key, sampleResult());
    std::string path = cache.entryPath(key);
    std::string full;
    {
        std::ifstream in(path, std::ios::binary);
        full.assign(std::istreambuf_iterator<char>(in),
                    std::istreambuf_iterator<char>());
    }
    // Flip one bit in a spread of positions: header, version, payload
    // doubles, trailing checksum. Each must invalidate the record.
    for (std::size_t pos = 0; pos < full.size();
         pos += full.size() / 40 + 1) {
        std::string bad = full;
        bad[pos] = static_cast<char>(bad[pos] ^ 0x10);
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out << bad;
        out.close();
        EXPECT_FALSE(cache.load(key).has_value()) << "byte " << pos;
    }
    // And the cache heals: a fresh store overwrites the bad entry.
    SimResult r = sampleResult();
    cache.store(key, r);
    auto got = cache.load(key);
    ASSERT_TRUE(got.has_value());
    EXPECT_TRUE(bitIdentical(*got, r));
}

TEST_F(ResultCacheTest, VersionMismatchIsMissNotError)
{
    ResultCache old(root, "sim-v4");
    CacheKey key{9, 10};
    old.store(key, sampleResult());

    ResultCache current(root, "sim-v5");
    EXPECT_FALSE(current.load(key).has_value());
    EXPECT_EQ(current.stats().misses, 1u);

    // The record itself is valid — verify must report it as another
    // version, not corruption.
    CacheUsage u = current.usage();
    EXPECT_EQ(u.entries, 1u);
    EXPECT_EQ(u.invalidEntries, 0u);
    EXPECT_EQ(u.otherVersionEntries, 1u);
}

TEST_F(ResultCacheTest, ConcurrentWritersRacingOneKey)
{
    ResultCache cache(root);
    CacheKey key{11, 12};
    SimResult r = sampleResult();
    std::vector<std::thread> writers;
    for (int t = 0; t < 8; ++t)
        writers.emplace_back([&] {
            for (int n = 0; n < 25; ++n)
                cache.store(key, r);
        });
    // Readers race the writers; every successful load must be the
    // complete record (rename atomicity), never a torn write.
    std::atomic<bool> torn{false};
    std::thread reader([&] {
        for (int n = 0; n < 200; ++n) {
            auto got = cache.load(key);
            if (got && !bitIdentical(*got, r))
                torn = true;
        }
    });
    for (auto &w : writers)
        w.join();
    reader.join();
    EXPECT_FALSE(torn.load());
    auto got = cache.load(key);
    ASSERT_TRUE(got.has_value());
    EXPECT_TRUE(bitIdentical(*got, r));
    // No temp files left behind.
    std::size_t strays = 0;
    for (auto &e : fs::recursive_directory_iterator(root))
        if (e.is_regular_file() &&
            e.path().filename().string().rfind(".tmp.", 0) == 0)
            ++strays;
    EXPECT_EQ(strays, 0u);
}

TEST_F(ResultCacheTest, GcAgeRemovesOnlyStrictlyOlderEntries)
{
    ResultCache cache(root);
    SimResult r = sampleResult();
    cache.store(CacheKey{1, 1}, r);
    cache.store(CacheKey{2, 2}, r);
    cache.store(CacheKey{3, 3}, r);

    std::int64_t now = cacheClockNow();
    auto age = [&](const CacheKey &k, std::int64_t seconds) {
        fs::last_write_time(
            cache.entryPath(k),
            fs::file_time_type(std::chrono::seconds(now - seconds)));
    };
    age(CacheKey{1, 1}, 10000); // older than limit: collected
    age(CacheKey{2, 2}, 3600);  // exactly at limit: kept
    // entry {3,3} keeps its fresh mtime: kept

    CacheGcResult g = cache.gc(3600, 0, now);
    EXPECT_EQ(g.scanned, 3u);
    EXPECT_EQ(g.removedAge, 1u);
    EXPECT_EQ(g.removedSize, 0u);
    EXPECT_FALSE(cache.load(CacheKey{1, 1}).has_value());
    EXPECT_TRUE(cache.load(CacheKey{2, 2}).has_value());
    EXPECT_TRUE(cache.load(CacheKey{3, 3}).has_value());
}

TEST_F(ResultCacheTest, GcSizeEvictsOldestFirst)
{
    ResultCache cache(root);
    SimResult r = sampleResult();
    cache.store(CacheKey{1, 1}, r);
    cache.store(CacheKey{2, 2}, r);
    cache.store(CacheKey{3, 3}, r);
    std::uint64_t each = cache.usage().bytes / 3;

    std::int64_t now = cacheClockNow();
    fs::last_write_time(
        cache.entryPath(CacheKey{2, 2}),
        fs::file_time_type(std::chrono::seconds(now - 5000)));

    // Budget for two entries: the oldest ({2,2}) must go, newer stay.
    CacheGcResult g = cache.gc(0, 2 * each + each / 2, now);
    EXPECT_EQ(g.removedSize, 1u);
    EXPECT_FALSE(cache.load(CacheKey{2, 2}).has_value());
    EXPECT_TRUE(cache.load(CacheKey{1, 1}).has_value());
    EXPECT_TRUE(cache.load(CacheKey{3, 3}).has_value());
    EXPECT_LE(g.bytesRemaining, 2 * each + each / 2);
}

TEST_F(ResultCacheTest, GcAlwaysCollectsInvalidEntries)
{
    ResultCache cache(root);
    cache.store(CacheKey{1, 1}, sampleResult());
    std::string path = cache.entryPath(CacheKey{1, 1});
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out << "garbage";
    }
    CacheGcResult g = cache.gc(0, 0, cacheClockNow());
    EXPECT_EQ(g.removedInvalid, 1u);
    EXPECT_FALSE(fs::exists(path));
}

TEST_F(ResultCacheTest, StoreFailureIsCountedNotSwallowed)
{
    // A cache root whose path is occupied by a regular file can never
    // materialise entry directories — every store must fail loudly in
    // the stats (chmod tricks don't work under root, a file does).
    {
        std::ofstream blocker(root, std::ios::binary);
        blocker << "not a directory";
    }
    ResultCache cache(root);
    EXPECT_FALSE(cache.store(CacheKey{1, 2}, sampleResult()));
    ResultCacheStats s = cache.stats();
    EXPECT_EQ(s.stores, 0u);
    EXPECT_EQ(s.storeFailures, 1u);
    EXPECT_FALSE(cache.probeWritable());
    fs::remove(root);
}

TEST_F(ResultCacheTest, SuccessfulStoreReportsNoFailures)
{
    ResultCache cache(root);
    EXPECT_TRUE(cache.store(CacheKey{1, 2}, sampleResult()));
    EXPECT_EQ(cache.stats().storeFailures, 0u);
    EXPECT_TRUE(cache.probeWritable());
}

TEST_F(ResultCacheTest, GcNeverRemovesEntriesWithFutureMtimes)
{
    // Clock skew (NFS, a fixed system clock, a restored backup) can
    // leave entries dated in the future. Signed age math would make
    // their age a huge unsigned number and collect the freshest
    // entries first; they must be kept instead.
    ResultCache cache(root);
    SimResult r = sampleResult();
    cache.store(CacheKey{1, 1}, r);
    cache.store(CacheKey{2, 2}, r);

    std::int64_t now = cacheClockNow();
    fs::last_write_time(
        cache.entryPath(CacheKey{1, 1}),
        fs::file_time_type(std::chrono::seconds(now + 500000)));

    CacheGcResult g = cache.gc(3600, 0, now);
    EXPECT_EQ(g.scanned, 2u);
    EXPECT_EQ(g.removedAge, 0u);
    EXPECT_TRUE(cache.load(CacheKey{1, 1}).has_value());
    EXPECT_TRUE(cache.load(CacheKey{2, 2}).has_value());
}

TEST_F(ResultCacheTest, GcHugeMaxAgeKeepsEverything)
{
    // The other face of the skew bug: a u64 age limit near the max
    // must behave as "no limit", not wrap into "collect everything".
    ResultCache cache(root);
    cache.store(CacheKey{3, 3}, sampleResult());
    CacheGcResult g =
        cache.gc(std::numeric_limits<std::uint64_t>::max(), 0,
                 cacheClockNow());
    EXPECT_EQ(g.removedAge, 0u);
    EXPECT_TRUE(cache.load(CacheKey{3, 3}).has_value());
}

TEST_F(ResultCacheTest, ActiveCacheInstallAndClear)
{
    EXPECT_EQ(activeResultCache(), nullptr);
    auto cache = std::make_shared<ResultCache>(root);
    setActiveResultCache(cache);
    EXPECT_EQ(activeResultCache(), cache);
    setActiveResultCache(nullptr);
    EXPECT_EQ(activeResultCache(), nullptr);
}

// ---- In-memory LRU layer (setMemoryCapacity) -----------------------

TEST_F(ResultCacheTest, MemoryLayerOffByDefault)
{
    ResultCache cache(root);
    EXPECT_EQ(cache.memoryCapacity(), 0u);
    CacheKey key{21, 1};
    cache.store(key, sampleResult());
    cache.load(key);
    cache.load(key);
    EXPECT_EQ(cache.stats().hits, 2u);
    EXPECT_EQ(cache.stats().memHits, 0u); // every hit re-read the disk
}

TEST_F(ResultCacheTest, MemoryLayerServesRepeatLoadsWithoutDisk)
{
    ResultCache cache(root);
    cache.setMemoryCapacity(4);
    CacheKey key{21, 2};
    SimResult r = sampleResult();
    cache.store(key, r); // a successful store populates the layer
    auto got = cache.load(key);
    ASSERT_TRUE(got.has_value());
    EXPECT_TRUE(bitIdentical(*got, r));
    ResultCacheStats s = cache.stats();
    EXPECT_EQ(s.hits, 1u);
    EXPECT_EQ(s.memHits, 1u); // served from memory, not the record

    // Proof it never touched the file: delete the record, load again.
    fs::remove(cache.entryPath(key));
    auto again = cache.load(key);
    ASSERT_TRUE(again.has_value());
    EXPECT_TRUE(bitIdentical(*again, r));
    EXPECT_EQ(cache.stats().memHits, 2u);
}

TEST_F(ResultCacheTest, DiskHitPopulatesMemoryLayer)
{
    ResultCache writer(root);
    CacheKey key{21, 3};
    SimResult r = sampleResult();
    writer.store(key, r);

    ResultCache reader(root); // fresh object: empty memory layer
    reader.setMemoryCapacity(4);
    reader.load(key); // disk hit, inserted into the layer
    EXPECT_EQ(reader.stats().memHits, 0u);
    reader.load(key);
    ResultCacheStats s = reader.stats();
    EXPECT_EQ(s.hits, 2u);
    EXPECT_EQ(s.memHits, 1u);
}

TEST_F(ResultCacheTest, MemoryLayerEvictsLeastRecentlyUsed)
{
    ResultCache cache(root);
    cache.setMemoryCapacity(2);
    CacheKey a{22, 1}, b{22, 2}, c{22, 3};
    cache.store(a, sampleResult(1));
    cache.store(b, sampleResult(2));
    cache.load(a);                 // a is now most recent: order a, b
    cache.store(c, sampleResult(3)); // capacity 2: b evicted
    fs::remove(cache.entryPath(a));
    fs::remove(cache.entryPath(b));
    fs::remove(cache.entryPath(c));
    EXPECT_TRUE(cache.load(a).has_value());  // still resident
    EXPECT_FALSE(cache.load(b).has_value()); // evicted -> disk miss
    EXPECT_TRUE(cache.load(c).has_value());
}

TEST_F(ResultCacheTest, ShrinkingCapacityEvictsImmediately)
{
    ResultCache cache(root);
    cache.setMemoryCapacity(4);
    CacheKey a{23, 1}, b{23, 2}, c{23, 3};
    cache.store(a, sampleResult(1));
    cache.store(b, sampleResult(2));
    cache.store(c, sampleResult(3));
    cache.setMemoryCapacity(1); // keep only the most recent (c)
    fs::remove(cache.entryPath(a));
    fs::remove(cache.entryPath(b));
    fs::remove(cache.entryPath(c));
    EXPECT_FALSE(cache.load(a).has_value());
    EXPECT_FALSE(cache.load(b).has_value());
    EXPECT_TRUE(cache.load(c).has_value());

    cache.setMemoryCapacity(0); // off: everything evicted
    EXPECT_FALSE(cache.load(c).has_value());
}

TEST_F(ResultCacheTest, MemoryHitIgnoresLaterDiskCorruption)
{
    // The layer holds decoded results: a record corrupted AFTER it
    // was cached in memory is still served exactly. (With the layer
    // off — the default — the corruption-recovery contract applies
    // instead and the entry reads as a miss; that path is pinned by
    // EveryBitFlipIsDetected above.)
    ResultCache cache(root);
    cache.setMemoryCapacity(2);
    CacheKey key{24, 1};
    SimResult r = sampleResult();
    cache.store(key, r);
    std::ofstream out(cache.entryPath(key),
                      std::ios::binary | std::ios::trunc);
    out << "garbage";
    out.close();
    auto got = cache.load(key);
    ASSERT_TRUE(got.has_value());
    EXPECT_TRUE(bitIdentical(*got, r));
    EXPECT_EQ(cache.stats().memHits, 1u);
    EXPECT_EQ(cache.stats().badEntries, 0u);
}

TEST_F(ResultCacheTest, LoadIntoDecodesIntoPresizedStorage)
{
    ResultCache cache(root);
    CacheKey key{30, 1};
    SimResult r = sampleResult();
    cache.store(key, r);
    SimResult slot;
    slot.intervals.reserve(r.intervals.size());
    const IntervalSample *storage = slot.intervals.data();
    ASSERT_TRUE(cache.loadInto(key, slot));
    EXPECT_TRUE(bitIdentical(slot, r));
    EXPECT_EQ(slot.intervals.data(), storage)
        << "decode reallocated a slot sized for it";
    EXPECT_EQ(cache.stats().hits, 1u);
}

TEST_F(ResultCacheTest, LoadIntoLeavesSlotUntouchedOnMiss)
{
    ResultCache cache(root);
    CacheKey key{31, 1};
    cache.store(key, sampleResult());
    fs::resize_file(cache.entryPath(key), 40);
    SimResult other = sampleResult(3);
    SimResult slot = other;
    EXPECT_FALSE(cache.loadInto(key, slot));
    EXPECT_TRUE(bitIdentical(slot, other));
    EXPECT_FALSE(cache.loadInto(CacheKey{31, 2}, slot));
    EXPECT_TRUE(bitIdentical(slot, other));
}

TEST_F(ResultCacheTest, DirectoryAtEntryPathIsMissAndStoreReplacesIt)
{
    ResultCache cache(root);
    CacheKey key{32, 1};
    fs::create_directories(cache.entryPath(key));
    EXPECT_FALSE(cache.load(key).has_value());
    EXPECT_EQ(cache.stats().misses, 1u);
    // Nothing was read, so nothing was a bad record.
    EXPECT_EQ(cache.stats().badEntries, 0u);

    // An empty directory squatting on the path is cleared by store().
    SimResult r = sampleResult();
    EXPECT_TRUE(cache.store(key, r));
    auto got = cache.load(key);
    ASSERT_TRUE(got.has_value());
    EXPECT_TRUE(bitIdentical(*got, r));

    // A non-empty one is not the cache's to delete: store() fails.
    CacheKey other{32, 2};
    fs::create_directories(cache.entryPath(other) + "/keep");
    EXPECT_FALSE(cache.store(other, r));
    EXPECT_TRUE(fs::exists(cache.entryPath(other) + "/keep"));
    EXPECT_FALSE(cache.load(other).has_value());
}

TEST_F(ResultCacheTest, EntryThatVanishesBeforeReadIsMiss)
{
    ResultCache cache(root);
    CacheKey key{33, 1};
    cache.store(key, sampleResult());
    ASSERT_TRUE(cache.load(key).has_value());
    fs::remove(cache.entryPath(key));
    EXPECT_FALSE(cache.load(key).has_value());
    EXPECT_EQ(cache.stats().misses, 1u);
    EXPECT_EQ(cache.stats().badEntries, 0u);
}

TEST_F(ResultCacheTest, FifoAtEntryPathIsMissWithoutBlocking)
{
    // Opening a FIFO for reading would wait for a writer; the load
    // must not, and must not treat it as a record.
    ResultCache cache(root);
    CacheKey key{34, 1};
    std::string path = cache.entryPath(key);
    fs::create_directories(fs::path(path).parent_path());
    ASSERT_EQ(::mkfifo(path.c_str(), 0600), 0);
    EXPECT_FALSE(cache.load(key).has_value());
    EXPECT_EQ(cache.stats().misses, 1u);
}

TEST_F(ResultCacheTest, ShortReadsUnderInPlaceRewritesAreHitOrMiss)
{
    // A writer truncating and rewriting the entry in place (not the
    // cache's atomic rename) makes loads race a file that shrinks and
    // regrows under them: each load sees fewer bytes than fstat said,
    // a partial record, or the whole one. Every outcome must be an
    // exact hit or a miss — never a crash or a wrong result.
    ResultCache cache(root);
    CacheKey key{35, 1};
    SimResult r = sampleResult();
    cache.store(key, r);
    std::string path = cache.entryPath(key);
    std::string record = encodeSimResult(r, kSimVersion);
    std::atomic<bool> stop{false};
    std::thread writer([&] {
        for (int i = 0; i < 300 && !stop; ++i) {
            std::ofstream out(path, std::ios::binary | std::ios::trunc);
            out.write(record.data(),
                      static_cast<std::streamsize>(
                          record.size() / 2 + (i % 7) * 16));
            out.flush();
            out.write(record.data() + record.size() / 2 + (i % 7) * 16,
                      static_cast<std::streamsize>(
                          record.size() - record.size() / 2 -
                          (i % 7) * 16));
        }
    });
    std::size_t hits = 0;
    for (int i = 0; i < 300; ++i) {
        SimResult slot;
        if (cache.loadInto(key, slot)) {
            ++hits;
            EXPECT_TRUE(bitIdentical(slot, r));
        }
    }
    stop = true;
    writer.join();
    ResultCacheStats s = cache.stats();
    EXPECT_EQ(s.hits, hits);
    EXPECT_EQ(s.hits + s.misses, 300u);
}

} // anonymous namespace
} // namespace wavedyn
