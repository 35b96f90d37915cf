/**
 * @file
 * Idle fast-forward coverage: on a memory-bound run, the exact
 * "issue stage inert" test must let the skip cover more cycles than
 * the issue-sleep bound it replaced, without moving a byte of the
 * result.
 */

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "sim_oracle.hh"

namespace wavedyn
{
namespace
{

TEST(IdleSkip, CoversMoreDeadCyclesOnMemoryBoundRun)
{
    const std::string bench = "gen/cache-thrash/s7/0";
    SimConfig cfg;
    for (const auto &c : oracle::configs())
        if (c.first == "membound")
            cfg = c.second;
    oracle::IdleSkipRun run = oracle::runIdleSkip(
        ScenarioGenerator(WorkloadFamily::CacheThrash, 7).generate(0),
        cfg);

    // Recorded with the issue-sleep memo this stage replaced: 111021
    // cycles in total, 104277 of them skipped, 6744 run one by one.
    EXPECT_EQ(run.cycles, 111021u);
    EXPECT_GT(run.skipped, 104277u);
    EXPECT_LT(run.cycles - run.skipped, 6744u);

    std::map<std::string, std::uint64_t> table = oracle::load();
    EXPECT_EQ(oracle::digest(run.result),
              table[oracle::key(bench, "membound", false)]);
}

} // namespace
} // namespace wavedyn
