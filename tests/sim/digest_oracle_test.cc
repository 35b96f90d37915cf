/**
 * @file
 * The frozen SimResult oracle: every tuple of sim_oracle.hh, run
 * through scalar simulate() and as a lane of a 16-lane
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
    // All 12 (config, DVM) tuples of a benchmark in one batch, padded
    // to 16 lanes with repeats, so idle-skipping lanes run beside
    // DVM lanes that cannot skip.
    std::map<std::string, std::uint64_t> table = oracle::load();
    ASSERT_EQ(table.size(), kTuples);
    for (const BenchmarkProfile &b : oracle::benchmarks()) {
        std::vector<BatchLane> lanes;
        std::vector<std::string> keys;
        for (const auto &c : oracle::configs())
            for (bool dvmOn : {false, true}) {
                lanes.push_back(BatchLane{c.second, oracle::dvm(dvmOn)});
                keys.push_back(oracle::key(b.name, c.first, dvmOn));
            }
        for (std::size_t i = 0; lanes.size() < 16; ++i) {
            lanes.push_back(lanes[i * 3 % 12]);
            keys.push_back(keys[i * 3 % 12]);
        }
        std::vector<SimResult> results = simulateBatch(
            b, lanes, oracle::kSamples, oracle::kInterval);
        ASSERT_EQ(results.size(), 16u);
        for (std::size_t l = 0; l < results.size(); ++l)
            EXPECT_EQ(oracle::digest(results[l]), table[keys[l]])
                << keys[l] << " lane " << l;
    }
}

} // namespace
} // namespace wavedyn
