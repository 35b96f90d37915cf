/**
 * @file
 * Content-addressed on-disk store of simulation results.
 *
 * Layout: <root>/<k0k1>/<k2k3>/<hex32>.wdr — two shard levels from the
 * leading hex digits of the key keep directories small at millions of
 * entries. Each entry is a self-checking binary record:
 *
 *   magic "WDRC" | format u32 | sim-version string | payload size u64 |
 *   payload | FNV-1a-64 checksum of payload
 *
 * Doubles are stored by bit pattern (memcpy to u64, little-endian), so
 * a cache hit returns the *exact* bytes simulate() produced — the
 * byte-identity contract the golden tests enforce.
 *
 * Failure policy: the cache must never make a run wrong or abort a
 * campaign. Any defect in an entry — truncation, a flipped bit caught
 * by the checksum, an unknown format, a sim-version mismatch, or
 * something other than a regular file at the entry path — reads as a
 * miss and the run is recomputed; store() overwrites the bad entry
 * with a fresh one (clearing an empty directory in its way). Loads
 * read an entry with one open and a sized read and decode it in
 * place, never copying the payload. Writes go to a unique temp file
 * in the final directory and are published with rename(), which POSIX
 * makes atomic: concurrent writers racing one key both succeed and
 * readers only ever observe complete records.
 *
 * An optional process-local in-memory LRU layer (setMemoryCapacity)
 * fronts the disk store: a bounded number of recently loaded or
 * stored entries are served without file I/O or decode. The layer
 * holds exact decoded results keyed by the same content address, so
 * it can never change what a load returns — only how fast.
 *
 * Thread safety: load()/store() and the counters are safe to call from
 * scheduler worker threads concurrently. gc()/verify()/usage() are
 * maintenance operations for the CLI; running them while a campaign
 * writes the same root is safe (rename atomicity) but their counts are
 * snapshots.
 */

#ifndef WAVEDYN_CACHE_STORE_HH
#define WAVEDYN_CACHE_STORE_HH

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cache/key.hh"
#include "sim/simulator.hh"

namespace wavedyn
{

/** Counters of one ResultCache's activity in this process. */
struct ResultCacheStats
{
    std::uint64_t hits = 0;     //!< all hits, memory or disk
    std::uint64_t memHits = 0;  //!< subset of hits served from memory
    std::uint64_t misses = 0;   //!< absent entries
    std::uint64_t badEntries = 0; //!< present but rejected (also missed)
    std::uint64_t stores = 0;
    std::uint64_t storeFailures = 0; //!< store() calls that published nothing
};

/**
 * Current time in the units CacheEntryInfo::mtime uses: seconds on the
 * filesystem clock (std::filesystem::file_time_type's clock, whose
 * epoch differs from the Unix epoch on libstdc++). Always compare
 * mtimes against this, never against time(nullptr).
 */
std::int64_t cacheClockNow();

/** One on-disk entry, as seen by scan-based maintenance. */
struct CacheEntryInfo
{
    std::string path;
    std::uint64_t bytes = 0;
    std::int64_t mtime = 0; //!< seconds, filesystem clock (cacheClockNow)
    bool valid = false;     //!< record parses and checksum matches
    bool versionMatch = false; //!< sim-version equals this cache's
};

/** Aggregate of a cache directory scan. */
struct CacheUsage
{
    std::uint64_t entries = 0;
    std::uint64_t bytes = 0;
    std::uint64_t invalidEntries = 0;
    std::uint64_t otherVersionEntries = 0; //!< valid, different sim-version
};

/** What gc() removed and why. */
struct CacheGcResult
{
    std::uint64_t scanned = 0;
    std::uint64_t removedAge = 0;
    std::uint64_t removedSize = 0;
    std::uint64_t removedInvalid = 0;
    std::uint64_t bytesFreed = 0;
    std::uint64_t bytesRemaining = 0;
};

/** Serialise a SimResult to the versioned binary record format. */
std::string encodeSimResult(const SimResult &result,
                            const std::string &simVersion);

/**
 * Parse a binary record. Returns std::nullopt on any defect
 * (truncation, bad magic/format, checksum mismatch) or when the
 * record's sim-version differs from @p simVersion.
 */
std::optional<SimResult> decodeSimResult(const std::string &bytes,
                                         const std::string &simVersion);

/**
 * A cache rooted at one directory, bound to one sim-version tag.
 * Copyable handles are not needed — share via std::shared_ptr (see
 * activeResultCache()).
 */
class ResultCache
{
  public:
    /**
     * Opens (and lazily creates) @p root. @p simVersion defaults to
     * this build's kSimVersion; tests override it to simulate version
     * skew.
     */
    explicit ResultCache(std::string root,
                         std::string simVersion = kSimVersion);

    const std::string &root() const { return rootDir; }
    const std::string &simVersion() const { return version; }

    /** Absolute path an entry for @p key lives at (whether present). */
    std::string entryPath(const CacheKey &key) const;

    /** Fetch a result; any absent/defective/version-skewed entry is a
     *  miss. With a memory capacity set, recently loaded/stored
     *  entries are served from the in-memory layer without touching
     *  the disk record. Thread-safe. */
    std::optional<SimResult> load(const CacheKey &key);

    /**
     * load() decoding straight into @p out: the record is read into a
     * per-thread buffer and decoded in place, reusing @p out's
     * interval storage, so a caller that sized @p out beforehand pays
     * no allocation. Same checks, counters and telemetry as load()
     * (which delegates here). Returns false on a miss, leaving @p out
     * unchanged.
     */
    bool loadInto(const CacheKey &key, SimResult &out);

    /** Publish a result under @p key (atomic rename; last writer
     *  wins). Returns false when nothing was published (read-only or
     *  full cache dir) — a failed store never aborts a campaign, it
     *  only costs a future recomputation, but it is counted
     *  (stats().storeFailures) and reported so a cache that has
     *  silently degraded to a permanent 0% hit rate is visible.
     *  Thread-safe. */
    bool store(const CacheKey &key, const SimResult &result);

    /** Whether this process can publish entries under the root: probes
     *  by writing and removing a throwaway file. A maintenance check
     *  for `cache stats`, not a guarantee — the disk can fill later. */
    bool probeWritable() const;

    /** Process-lifetime counters of this cache object. */
    ResultCacheStats stats() const;

    /**
     * Bound of the process-local in-memory LRU layer in entries; 0
     * (the default) disables it. The layer fronts the disk store:
     * load() consults it first (a memory hit skips file I/O and
     * decode entirely, counted in stats().memHits and the
     * cache.mem_hits telemetry counter), and both disk hits and
     * successful store() calls populate it, evicting least-recently
     * used entries beyond the bound.
     *
     * Deliberately opt-in: with the layer off, every load() re-reads
     * and re-verifies the disk record, which is the behaviour the
     * corruption-recovery contract ("any defect reads as a miss")
     * is tested against. The CLI enables a small bound for campaign
     * commands — within one process a re-probed key is then a memory
     * hit — while tests and maintenance commands see the disk truth.
     * Shrinking the capacity evicts immediately; thread-safe.
     */
    void setMemoryCapacity(std::size_t maxEntries);
    std::size_t memoryCapacity() const;

    /** Scan every entry under the root. */
    std::vector<CacheEntryInfo> scan() const;

    /** Totals of scan(). */
    CacheUsage usage() const;

    /**
     * Remove entries older than @p maxAgeSeconds (0 = no age limit),
     * then — oldest first — until the total is within @p maxBytes
     * (0 = no size limit). Invalid entries are always removed. Entries
     * newer than the age threshold are never deleted by the age rule;
     * in particular an entry whose mtime lies in the future (clock
     * skew between hosts sharing one cache dir) has no age and is
     * never removed by the age rule, for any maxAgeSeconds.
     * @p now is the reference time in cacheClockNow() units so tests
     * can pin it; the CLI passes cacheClockNow().
     */
    CacheGcResult gc(std::uint64_t maxAgeSeconds, std::uint64_t maxBytes,
                     std::int64_t now);

  private:
    /** entryPath() of an already-rendered key hex. */
    std::string entryPathOf(const std::string &hex) const;

    /** Insert/refresh @p key in the LRU layer (no-op when off). */
    void memoryPut(const std::string &keyHex, const SimResult &result);

    std::string rootDir;
    std::string version;
    std::atomic<std::uint64_t> nHits{0};
    std::atomic<std::uint64_t> nMemHits{0};
    std::atomic<std::uint64_t> nMisses{0};
    std::atomic<std::uint64_t> nBad{0};
    std::atomic<std::uint64_t> nStores{0};
    std::atomic<std::uint64_t> nStoreFailures{0};

    /** In-memory LRU front (see setMemoryCapacity): recency list of
     *  (key, result) with an index into it; all guarded by memMu. */
    mutable std::mutex memMu;
    std::size_t memCap = 0;
    std::list<std::pair<std::string, SimResult>> memList;
    std::unordered_map<
        std::string,
        std::list<std::pair<std::string, SimResult>>::iterator>
        memIndex;
};

/**
 * The process-wide cache campaign runs consult, or nullptr when
 * caching is off (the default). Mirrors the currentJobs()/setJobs()
 * pattern: the CLI configures it once from --cache-dir /
 * WAVEDYN_CACHE_DIR before running a campaign, and RunScheduler
 * captures it at construction.
 */
std::shared_ptr<ResultCache> activeResultCache();
void setActiveResultCache(std::shared_ptr<ResultCache> cache);

} // namespace wavedyn

#endif // WAVEDYN_CACHE_STORE_HH
