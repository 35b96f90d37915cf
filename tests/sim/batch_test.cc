/**
 * @file
 * Lane-independence tests of the config-batched simulation kernel:
 * at every batch width, every lane of simulateBatch() must return
 * byte-for-byte the SimResult simulate() (a one-lane batch) returns
 * for that lane alone. Byte-identity is checked through the cache
 * record encoding (encodeSimResult), which serialises doubles by bit
 * pattern — the strictest comparison the repo has.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <vector>

#include "cache/store.hh"
#include "sim/batch.hh"
#include "sim/simulator.hh"
#include "workload/generator.hh"
#include "workload/profile.hh"

namespace wavedyn
{
namespace
{

/** Byte-for-byte SimResult equality via the cache record encoding. */
bool
sameBytes(const SimResult &a, const SimResult &b)
{
    return encodeSimResult(a, "x") == encodeSimResult(b, "x");
}

/** A config that varies meaningfully with @p lane (ROB, widths). */
SimConfig
laneConfig(std::size_t lane)
{
    SimConfig cfg = SimConfig::baseline();
    cfg.robSize = 32 + 16 * static_cast<unsigned>(lane % 6);
    cfg.fetchWidth = 2 + static_cast<unsigned>(lane % 4);
    cfg.iqSize = 48 + 8 * static_cast<unsigned>(lane % 3);
    return cfg;
}

/** One generated profile per family, fixed seed. */
std::vector<BenchmarkProfile>
generatedProfiles()
{
    std::vector<BenchmarkProfile> out;
    for (WorkloadFamily f : allFamilies())
        out.push_back(ScenarioGenerator(f, 7).generate(0));
    return out;
}

void
expectBatchMatchesAlone(const BenchmarkProfile &bench, std::size_t width,
                         std::size_t samples, std::size_t perInterval,
                         const DvmConfig &dvm = {})
{
    std::vector<SimConfig> cfgs;
    for (std::size_t l = 0; l < width; ++l)
        cfgs.push_back(laneConfig(l));

    std::vector<SimResult> batched =
        simulateBatch(bench, cfgs, samples, perInterval, dvm);
    ASSERT_EQ(batched.size(), width);
    for (std::size_t l = 0; l < width; ++l) {
        SimResult alone =
            simulate(bench, cfgs[l], samples, perInterval, dvm);
        EXPECT_TRUE(sameBytes(batched[l], alone))
            << bench.name << " width=" << width << " lane=" << l;
    }
}

TEST(SimulateBatch, BitIdenticalAcrossGeneratedFamilies)
{
    for (const BenchmarkProfile &bench : generatedProfiles())
        for (std::size_t width : {1u, 2u, 7u})
            expectBatchMatchesAlone(bench, width, 6, 192);
}

TEST(SimulateBatch, BitIdenticalOnPaperBenchmark)
{
    const BenchmarkProfile &gcc = benchmarkByName("gcc");
    for (std::size_t width : {1u, 2u, 7u, 64u})
        expectBatchMatchesAlone(gcc, width, 6, 192);
}

TEST(SimulateBatch, BitIdenticalAtWideWidthOnGeneratedFamily)
{
    // One wide batch on a generated family keeps the arena and the
    // shared-window trim under more lanes than the scheduler default.
    expectBatchMatchesAlone(
        ScenarioGenerator(WorkloadFamily::Mixed, 7).generate(0), 64, 4,
        160);
}

TEST(SimulateBatch, BitIdenticalWithDvmEnabled)
{
    DvmConfig dvm;
    dvm.enabled = true;
    expectBatchMatchesAlone(
        ScenarioGenerator(WorkloadFamily::PhaseChaotic, 7).generate(0),
        7, 6, 192, dvm);
}

TEST(SimulateBatch, IdenticalConfigsProduceIdenticalLanes)
{
    const BenchmarkProfile &bench = benchmarkByName("gcc");
    std::vector<SimConfig> cfgs(3, SimConfig::baseline());
    std::vector<SimResult> rs = simulateBatch(bench, cfgs, 4, 160);
    ASSERT_EQ(rs.size(), 3u);
    EXPECT_TRUE(sameBytes(rs[0], rs[1]));
    EXPECT_TRUE(sameBytes(rs[0], rs[2]));
}

TEST(SimulateBatch, EmptyBatchReturnsNothing)
{
    EXPECT_TRUE(simulateBatch(benchmarkByName("gcc"),
                              std::vector<SimConfig>{}, 4, 160)
                    .empty());
}

TEST(SimulateBatch, GlobalWidthKnobRoundTrips)
{
    unsigned before = globalBatchWidth();
    EXPECT_GE(before, 1u); // unset resolves to env or the default
    setGlobalBatchWidth(5);
    EXPECT_EQ(globalBatchWidth(), 5u);
    setGlobalBatchWidth(1);
    EXPECT_EQ(globalBatchWidth(), 1u);
    setGlobalBatchWidth(0); // back to unset: env / default fallback
    EXPECT_EQ(globalBatchWidth(), before);
}

} // namespace
} // namespace wavedyn
