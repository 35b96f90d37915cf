/**
 * @file
 * The frozen SimResult oracle: every tuple of sim_oracle.hh, run
 * through simulate() (a one-lane batch) and as a lane of a 16-lane
 * simulateBatch(), must reproduce its checked-in digest exactly.
 * tests/data/sim_digests.txt is never regenerated; an intended change
 * to what the simulator computes bumps kSimVersion and replaces the
 * file in the same change, with the reason on record.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/batch.hh"
#include "sim_oracle.hh"

namespace wavedyn
{
namespace
{

constexpr std::size_t kTuples = 7 * 6 * 2;

TEST(SimDigestOracle, TableCoversEveryTuple)
{
    std::map<std::string, std::uint64_t> table = oracle::load();
    ASSERT_EQ(table.size(), kTuples);
    for (const BenchmarkProfile &b : oracle::benchmarks())
        for (const auto &c : oracle::configs())
            for (bool dvmOn : {false, true})
                EXPECT_EQ(table.count(oracle::key(b.name, c.first, dvmOn)),
                          1u)
                    << oracle::key(b.name, c.first, dvmOn);
}

TEST(SimDigestOracle, ScalarSimulateMatches)
{
    std::map<std::string, std::uint64_t> table = oracle::load();
    ASSERT_EQ(table.size(), kTuples);
    for (const BenchmarkProfile &b : oracle::benchmarks())
        for (const auto &c : oracle::configs())
            for (bool dvmOn : {false, true}) {
                SimResult r = simulate(b, c.second, oracle::kSamples,
                                       oracle::kInterval,
                                       oracle::dvm(dvmOn));
                EXPECT_EQ(oracle::digest(r),
                          table[oracle::key(b.name, c.first, dvmOn)])
                    << oracle::key(b.name, c.first, dvmOn);
            }
}

TEST(SimDigestOracle, Batch16LanesMatch)
{
    // Each DVM setting of a benchmark as its own batch: all 6 configs,
    // padded to 16 lanes with repeats.
    std::map<std::string, std::uint64_t> table = oracle::load();
    ASSERT_EQ(table.size(), kTuples);
    for (const BenchmarkProfile &b : oracle::benchmarks())
        for (bool dvmOn : {false, true}) {
            std::vector<SimConfig> configs;
            std::vector<std::string> keys;
            for (const auto &c : oracle::configs()) {
                configs.push_back(c.second);
                keys.push_back(oracle::key(b.name, c.first, dvmOn));
            }
            const std::size_t distinct = configs.size();
            for (std::size_t i = 0; configs.size() < 16; ++i) {
                configs.push_back(configs[i * 5 % distinct]);
                keys.push_back(keys[i * 5 % distinct]);
            }
            std::vector<SimResult> results =
                simulateBatch(b, configs, oracle::kSamples,
                              oracle::kInterval, oracle::dvm(dvmOn));
            ASSERT_EQ(results.size(), 16u);
            for (std::size_t l = 0; l < results.size(); ++l)
                EXPECT_EQ(oracle::digest(results[l]), table[keys[l]])
                    << keys[l] << " lane " << l;
        }
}

} // namespace
} // namespace wavedyn
