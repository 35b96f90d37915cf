/**
 * @file
 * Content-addressed cache keys for simulation results.
 *
 * simulate() is a pure function of (BenchmarkProfile, SimConfig,
 * samples, intervalInstrs, DvmConfig) at a fixed kSimVersion
 * (sim/simulator.hh), so a run's identity is exactly those values. The
 * key is a 128-bit FNV-1a hash of a canonical JSON document encoding
 * all of them — canonical because the deterministic JSON writer
 * (util/json.hh) renders equal values to identical bytes (insertion-
 * ordered members, exact integers, shortest round-tripping doubles),
 * which turns SimConfig::toJson / BenchmarkProfile::toJson / DvmConfig
 * toJson into the stability contract the cache rests on: change a key
 * spelling and every cached run re-keys (a correctness-preserving
 * cache flush); change simulate() semantics and you must bump
 * kSimVersion instead (also a flush, via the version member of the
 * document).
 *
 * The hash is not cryptographic — FNV-1a twice with independent offset
 * bases — but 128 bits over canonical documents makes an accidental
 * collision between two *different* runs of the same campaign
 * vanishingly unlikely, and a collision's worst case is a wrong
 * (still well-formed) result for one run, caught by the byte-identity
 * goldens in CI.
 */

#ifndef WAVEDYN_CACHE_KEY_HH
#define WAVEDYN_CACHE_KEY_HH

#include <cstddef>
#include <cstdint>
#include <string>

#include "dvm/controller.hh"
#include "sim/config.hh"
#include "sim/simulator.hh"
#include "workload/profile.hh"

namespace wavedyn
{

/** 128-bit content address of one simulation run. */
struct CacheKey
{
    std::uint64_t hi = 0;
    std::uint64_t lo = 0;

    /** 32 lowercase hex digits (hi then lo) — the on-disk file stem. */
    std::string hex() const;
};

bool operator==(const CacheKey &a, const CacheKey &b);
bool operator!=(const CacheKey &a, const CacheKey &b);

/**
 * 64-bit FNV-1a over @p bytes starting from @p basis. The basis is
 * the running state: hashing a string's head, then continuing from
 * that result over its tail, equals hashing the whole string.
 */
std::uint64_t fnv1a64(const std::string &bytes, std::uint64_t basis);

/** fnv1a64 over the @p size bytes at @p data. */
std::uint64_t fnv1a64(const char *data, std::size_t size,
                      std::uint64_t basis);

/**
 * Head of the key document — the members every run of one benchmark
 * shares: {"sim_version":...,"benchmark":... (no closing brace).
 */
std::string cacheKeyPrefix(const BenchmarkProfile &bench,
                           const std::string &simVersion = kSimVersion);

/**
 * Tail of the key document — the per-run members:
 * ,"config":...,"samples":...,"interval_instrs":...,"dvm":...}
 */
std::string cacheKeySuffix(const SimConfig &cfg, std::size_t samples,
                           std::size_t intervalInstrs,
                           const DvmConfig &dvm);

/**
 * The canonical key document of one run, as compact JSON text:
 * cacheKeyPrefix + cacheKeySuffix, i.e.
 * {"sim_version":...,"benchmark":...,"config":...,"samples":...,
 *  "interval_instrs":...,"dvm":...}. Exposed so tests (and the README)
 * can pin the exact bytes the key hashes.
 */
std::string cacheKeyDocument(const BenchmarkProfile &bench,
                             const SimConfig &cfg, std::size_t samples,
                             std::size_t intervalInstrs,
                             const DvmConfig &dvm,
                             const std::string &simVersion = kSimVersion);

/**
 * Both key halves' FNV-1a state after hashing one cacheKeyPrefix. A
 * batch of runs over one benchmark hashes the prefix once and finishes
 * each run's key from this state (finishCacheKey) — the bytes hashed,
 * and so the keys, are exactly resultCacheKey's.
 */
struct CacheKeyPrefixState
{
    std::uint64_t hi = 0;
    std::uint64_t lo = 0;
};

/** Hash cacheKeyPrefix(@p bench, @p simVersion). */
CacheKeyPrefixState
cacheKeyPrefixState(const BenchmarkProfile &bench,
                    const std::string &simVersion = kSimVersion);

/** Continue @p prefix over the run's cacheKeySuffix. */
CacheKey finishCacheKey(const CacheKeyPrefixState &prefix,
                        const SimConfig &cfg, std::size_t samples,
                        std::size_t intervalInstrs, const DvmConfig &dvm);

/** Hash of cacheKeyDocument — the run's content address. */
CacheKey resultCacheKey(const BenchmarkProfile &bench,
                        const SimConfig &cfg, std::size_t samples,
                        std::size_t intervalInstrs, const DvmConfig &dvm,
                        const std::string &simVersion = kSimVersion);

} // namespace wavedyn

#endif // WAVEDYN_CACHE_KEY_HH
