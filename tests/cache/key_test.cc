/**
 * @file
 * Tests for content-addressed cache keys: determinism, sensitivity to
 * every input (any change re-keys), and insensitivity to what is
 * deliberately excluded (scheduler seed is not an input).
 */

#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "cache/key.hh"
#include "sim/design_space.hh"
#include "util/json.hh"

namespace wavedyn
{
namespace
{

const BenchmarkProfile &
bench()
{
    return allBenchmarks().front();
}

CacheKey
keyOf(const SimConfig &cfg)
{
    return resultCacheKey(bench(), cfg, 16, 120, DvmConfig{});
}

TEST(CacheKey, Deterministic)
{
    SimConfig cfg = SimConfig::baseline();
    CacheKey a = keyOf(cfg);
    CacheKey b = keyOf(cfg);
    EXPECT_EQ(a, b);
    EXPECT_EQ(a.hex(), b.hex());
}

TEST(CacheKey, HexIs32LowercaseDigits)
{
    std::string hex = keyOf(SimConfig::baseline()).hex();
    ASSERT_EQ(hex.size(), 32u);
    for (char c : hex)
        EXPECT_TRUE((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'))
            << hex;
}

TEST(CacheKey, AnyConfigFieldChangeReKeys)
{
    SimConfig base = SimConfig::baseline();
    CacheKey baseKey = keyOf(base);
    std::set<std::string> seen{baseKey.hex()};

    // A sample across Table 2 and Table 1 fields, including the last
    // one (truncated visitors break there first).
    SimConfig c = base;
    c.fetchWidth += 1;
    EXPECT_TRUE(seen.insert(keyOf(c).hex()).second) << "fetchWidth";
    c = base;
    c.robSize += 1;
    EXPECT_TRUE(seen.insert(keyOf(c).hex()).second) << "robSize";
    c = base;
    c.memLat += 1;
    EXPECT_TRUE(seen.insert(keyOf(c).hex()).second) << "memLat";
    c = base;
    c.btbMissPenalty += 1;
    EXPECT_TRUE(seen.insert(keyOf(c).hex()).second) << "btbMissPenalty";
}

TEST(CacheKey, RunShapeAndDvmReKey)
{
    SimConfig cfg = SimConfig::baseline();
    CacheKey base = resultCacheKey(bench(), cfg, 16, 120, DvmConfig{});
    EXPECT_NE(resultCacheKey(bench(), cfg, 32, 120, DvmConfig{}), base)
        << "samples";
    EXPECT_NE(resultCacheKey(bench(), cfg, 16, 240, DvmConfig{}), base)
        << "intervalInstrs";
    DvmConfig dvm;
    dvm.enabled = true;
    EXPECT_NE(resultCacheKey(bench(), cfg, 16, 120, dvm), base)
        << "dvm.enabled";
}

TEST(CacheKey, ScenarioIdentityReKeys)
{
    SimConfig cfg = SimConfig::baseline();
    const auto &all = allBenchmarks();
    ASSERT_GE(all.size(), 2u);
    EXPECT_NE(resultCacheKey(all[0], cfg, 16, 120, DvmConfig{}),
              resultCacheKey(all[1], cfg, 16, 120, DvmConfig{}));

    // Even a pure rename is a different scenario: the name is part of
    // the identity, matching how campaigns select scenarios.
    BenchmarkProfile renamed = all[0];
    renamed.name += "-prime";
    EXPECT_NE(resultCacheKey(renamed, cfg, 16, 120, DvmConfig{}),
              resultCacheKey(all[0], cfg, 16, 120, DvmConfig{}));
}

TEST(CacheKey, SimVersionReKeys)
{
    SimConfig cfg = SimConfig::baseline();
    EXPECT_NE(
        resultCacheKey(bench(), cfg, 16, 120, DvmConfig{}, "sim-v5"),
        resultCacheKey(bench(), cfg, 16, 120, DvmConfig{}, "sim-v6"));
}

TEST(CacheKey, DocumentIsCanonicalCompactJson)
{
    std::string doc = cacheKeyDocument(bench(), SimConfig::baseline(),
                                       16, 120, DvmConfig{});
    // Compact (hash input must not depend on pretty-printing) and
    // carrying every identity component.
    EXPECT_EQ(doc.find('\n'), std::string::npos);
    JsonValue parsed = parseJson(doc);
    ASSERT_TRUE(parsed.isObject());
    EXPECT_EQ(parsed.at("sim_version").asString(), kSimVersion);
    EXPECT_EQ(parsed.at("benchmark").at("name").asString(),
              bench().name);
    EXPECT_EQ(parsed.at("samples").asUint64(), 16u);
    EXPECT_EQ(parsed.at("interval_instrs").asUint64(), 120u);
    EXPECT_TRUE(parsed.at("config").isObject());
    EXPECT_TRUE(parsed.at("dvm").isObject());
}

TEST(CacheKey, Fnv1aKnownVector)
{
    // FNV-1a 64 of "a" from the standard offset basis — pins the
    // algorithm (and byte order) against accidental rewrites.
    EXPECT_EQ(fnv1a64("a", 0xcbf29ce484222325ull),
              0xaf63dc4c8601ec8cull);
    // Empty input returns the basis untouched.
    EXPECT_EQ(fnv1a64("", 0xcbf29ce484222325ull),
              0xcbf29ce484222325ull);
}

/**
 * The oracle's four machines: the baseline plus the all-lowest,
 * all-highest and a mixed point of the paper's training grid.
 */
std::vector<SimConfig>
oracleConfigs()
{
    DesignSpace space = DesignSpace::paper();
    std::vector<SimConfig> cfgs{SimConfig::baseline()};
    std::size_t d = space.dimensions();
    std::vector<std::size_t> lo(d, 0), hi(d), mix(d);
    for (std::size_t j = 0; j < d; ++j) {
        hi[j] = space.param(j).levels() - 1;
        mix[j] = j % space.param(j).levels();
    }
    for (const auto *idx : {&lo, &hi, &mix})
        cfgs.push_back(SimConfig::fromDesignPoint(
            space, space.pointFromTrainIndices(*idx)));
    return cfgs;
}

DvmConfig
oracleDvm(bool on)
{
    DvmConfig dvm;
    dvm.enabled = on;
    return dvm;
}

TEST(CacheKey, MatchesFrozenOracle)
{
    // tests/data/cache_keys.txt was generated before the key document
    // was split into prefix and suffix, and is never regenerated: a
    // changed line means every cache on disk silently re-keys.
    std::ifstream in(std::string(WAVEDYN_TEST_DATA_DIR) +
                     "/cache_keys.txt");
    ASSERT_TRUE(in.good());
    std::vector<SimConfig> cfgs = oracleConfigs();
    std::size_t lines = 0;
    std::string line;
    while (std::getline(in, line)) {
        std::istringstream fields(line);
        std::string name, cfgTag, dvmTag, hex;
        fields >> name >> cfgTag >> dvmTag >> hex;
        const BenchmarkProfile *bench = nullptr;
        for (const BenchmarkProfile &b : allBenchmarks())
            if (b.name == name)
                bench = &b;
        ASSERT_NE(bench, nullptr) << line;
        std::size_t c = std::stoul(cfgTag.substr(3));
        ASSERT_LT(c, cfgs.size()) << line;
        bool dvmOn = dvmTag == "dvm1";
        EXPECT_EQ(resultCacheKey(*bench, cfgs[c], 128, 64, oracleDvm(dvmOn))
                      .hex(),
                  hex)
            << line;
        ++lines;
    }
    EXPECT_EQ(lines, allBenchmarks().size() * cfgs.size() * 2);
}

TEST(CacheKey, PrefixPlusSuffixIsTheDocument)
{
    for (const BenchmarkProfile &b : allBenchmarks()) {
        std::string prefix = cacheKeyPrefix(b);
        CacheKeyPrefixState state = cacheKeyPrefixState(b);
        for (const SimConfig &cfg : oracleConfigs())
            for (bool dvmOn : {false, true}) {
                DvmConfig dvm = oracleDvm(dvmOn);
                EXPECT_EQ(prefix + cacheKeySuffix(cfg, 128, 64, dvm),
                          cacheKeyDocument(b, cfg, 128, 64, dvm))
                    << b.name;
                EXPECT_EQ(finishCacheKey(state, cfg, 128, 64, dvm),
                          resultCacheKey(b, cfg, 128, 64, dvm))
                    << b.name;
            }
    }
}

TEST(CacheKey, Fnv1aContinuesFromItsBasis)
{
    std::string text = "{\"sim_version\":\"x\",\"config\":{}}";
    for (std::size_t cut = 0; cut <= text.size(); ++cut)
        EXPECT_EQ(fnv1a64(text.substr(cut),
                          fnv1a64(text.substr(0, cut), 0x1234ull)),
                  fnv1a64(text, 0x1234ull))
            << cut;
}

} // anonymous namespace
} // namespace wavedyn
