#include "cache/key.hh"

#include <cstdio>

#include "util/json.hh"

namespace wavedyn
{

namespace
{

// Standard FNV-1a 64-bit offset basis, plus a second independent basis
// (the FNV-1a hash of "wavedyn-cache-hi" under the standard basis,
// precomputed) so hi and lo are two unrelated 64-bit digests of the
// same document.
constexpr std::uint64_t kFnvBasisLo = 0xcbf29ce484222325ull;
constexpr std::uint64_t kFnvBasisHi = 0xa3c9f5e07a1b64d9ull;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

} // namespace

std::uint64_t
fnv1a64(const char *data, std::size_t size, std::uint64_t basis)
{
    std::uint64_t h = basis;
    for (std::size_t i = 0; i < size; ++i) {
        h ^= static_cast<unsigned char>(data[i]);
        h *= kFnvPrime;
    }
    return h;
}

std::uint64_t
fnv1a64(const std::string &bytes, std::uint64_t basis)
{
    return fnv1a64(bytes.data(), bytes.size(), basis);
}

std::string
CacheKey::hex() const
{
    char buf[33];
    std::snprintf(buf, sizeof(buf), "%016llx%016llx",
                  static_cast<unsigned long long>(hi),
                  static_cast<unsigned long long>(lo));
    return std::string(buf, 32);
}

bool
operator==(const CacheKey &a, const CacheKey &b)
{
    return a.hi == b.hi && a.lo == b.lo;
}

bool
operator!=(const CacheKey &a, const CacheKey &b)
{
    return !(a == b);
}

// The prefix and suffix are each rendered as a compact JSON object by
// the one deterministic writer, then spliced: the prefix drops its
// closing brace and the suffix's opening brace becomes the member
// separator, so prefix + suffix is the single object both describe.
std::string
cacheKeyPrefix(const BenchmarkProfile &bench, const std::string &simVersion)
{
    JsonValue doc = JsonValue::object();
    doc.set("sim_version", simVersion);
    doc.set("benchmark", bench.toJson());
    std::string text = writeJson(doc, 0);
    text.pop_back();
    return text;
}

std::string
cacheKeySuffix(const SimConfig &cfg, std::size_t samples,
               std::size_t intervalInstrs, const DvmConfig &dvm)
{
    JsonValue doc = JsonValue::object();
    doc.set("config", cfg.toJson());
    doc.set("samples", std::uint64_t{samples});
    doc.set("interval_instrs", std::uint64_t{intervalInstrs});
    doc.set("dvm", toJson(dvm));
    std::string text = writeJson(doc, 0);
    text.front() = ',';
    return text;
}

std::string
cacheKeyDocument(const BenchmarkProfile &bench, const SimConfig &cfg,
                 std::size_t samples, std::size_t intervalInstrs,
                 const DvmConfig &dvm, const std::string &simVersion)
{
    return cacheKeyPrefix(bench, simVersion) +
           cacheKeySuffix(cfg, samples, intervalInstrs, dvm);
}

CacheKeyPrefixState
cacheKeyPrefixState(const BenchmarkProfile &bench,
                    const std::string &simVersion)
{
    std::string prefix = cacheKeyPrefix(bench, simVersion);
    CacheKeyPrefixState state;
    state.hi = fnv1a64(prefix, kFnvBasisHi);
    state.lo = fnv1a64(prefix, kFnvBasisLo);
    return state;
}

CacheKey
finishCacheKey(const CacheKeyPrefixState &prefix, const SimConfig &cfg,
               std::size_t samples, std::size_t intervalInstrs,
               const DvmConfig &dvm)
{
    std::string suffix = cacheKeySuffix(cfg, samples, intervalInstrs, dvm);
    CacheKey key;
    key.hi = fnv1a64(suffix, prefix.hi);
    key.lo = fnv1a64(suffix, prefix.lo);
    return key;
}

CacheKey
resultCacheKey(const BenchmarkProfile &bench, const SimConfig &cfg,
               std::size_t samples, std::size_t intervalInstrs,
               const DvmConfig &dvm, const std::string &simVersion)
{
    return finishCacheKey(cacheKeyPrefixState(bench, simVersion), cfg,
                          samples, intervalInstrs, dvm);
}

} // namespace wavedyn
