/**
 * @file
 * Idle fast-forward coverage: on a memory-bound run, the exact
 * "issue stage inert" test must let the skip cover more cycles than
 * the issue-sleep bound it replaced, without moving a byte of the
 * result. The Pipeline constructor arms the skip exactly when the DVM
 * controller is off.
 */

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "sim_oracle.hh"

namespace wavedyn
{
namespace
{

const std::string kBench = "gen/cache-thrash/s7/0";

SimConfig
memboundConfig()
{
    SimConfig cfg;
    for (const auto &c : oracle::configs())
        if (c.first == "membound")
            cfg = c.second;
    return cfg;
}

oracle::IdleSkipRun
memboundRun(bool dvmOn)
{
    return oracle::runIdleSkip(
        ScenarioGenerator(WorkloadFamily::CacheThrash, 7).generate(0),
        memboundConfig(), oracle::dvm(dvmOn));
}

TEST(IdleSkip, CoversMoreDeadCyclesOnMemoryBoundRun)
{
    oracle::IdleSkipRun run = memboundRun(false);

    // Recorded with the issue-sleep memo this stage replaced: 111021
    // cycles in total, 104277 of them skipped, 6744 run one by one.
    EXPECT_EQ(run.cycles, 111021u);
    EXPECT_GT(run.skipped, 104277u);
    EXPECT_LT(run.cycles - run.skipped, 6744u);

    std::map<std::string, std::uint64_t> table = oracle::load();
    EXPECT_EQ(oracle::digest(run.result),
              table[oracle::key(kBench, "membound", false)]);
}

TEST(IdleSkip, DisarmedWhenDvmEnabled)
{
    // An enabled DVM controller observes every cycle, so no cycle is
    // inert: the same memory-bound run skips nothing.
    oracle::IdleSkipRun run = memboundRun(true);
    EXPECT_GT(run.cycles, 0u);
    EXPECT_EQ(run.skipped, 0u);

    std::map<std::string, std::uint64_t> table = oracle::load();
    EXPECT_EQ(oracle::digest(run.result),
              table[oracle::key(kBench, "membound", true)]);
}

} // namespace
} // namespace wavedyn
