/**
 * @file
 * Exploration engine tests: the adaptive loop's accounting (rounds,
 * budget, training-set growth), spec validation, and the determinism
 * contract — the rendered report is byte-identical for jobs 1 vs 8
 * and for different chunk sizes, and pinned to a checked-in golden
 * file (WAVEDYN_UPDATE_GOLDEN=1 regenerates; same toolchain caveat as
 * the suite golden test).
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "core/scenario.hh"
#include "dse/explorer.hh"
#include "util/options.hh"

#ifndef WAVEDYN_TEST_DATA_DIR
#error "WAVEDYN_TEST_DATA_DIR must point at tests/data"
#endif

namespace wavedyn
{
namespace
{

const char *kGoldenPath =
    WAVEDYN_TEST_DATA_DIR "/golden_explore_report.txt";
const char *kLinearGoldenPath =
    WAVEDYN_TEST_DATA_DIR "/golden_explore_linear_report.txt";

/** The pinned campaign: 3 mixed scenarios, 2 refinement rounds. */
ExploreSpec
pinnedSpec(const ScenarioSet &scenarios)
{
    ExploreSpec spec;
    spec.base.trainPoints = 10;
    spec.base.testPoints = 4;
    spec.base.samples = 16;
    spec.base.intervalInstrs = 120;
    spec.base.scenarios = &scenarios;
    spec.scenarios = scenarios.names();
    spec.objectives = {Objective::Cpi, Objective::Energy,
                       Objective::Avf};
    spec.budget = 4;
    spec.perRound = 2;
    spec.chunk = 64; // several chunks even at the strided sweep size
    spec.maxSweepPoints = 512;
    return spec;
}

ScenarioSet
pinnedScenarios()
{
    ScenarioSet scenarios;
    scenarios.addGenerated(WorkloadFamily::Mixed, 7, 3);
    return scenarios;
}

std::string
renderPinnedCampaign(std::size_t jobs, std::size_t chunk = 64,
                     CoefficientModel model = CoefficientModel::Rbf)
{
    ScenarioSet scenarios = pinnedScenarios();
    ExploreSpec spec = pinnedSpec(scenarios);
    spec.chunk = chunk;
    spec.predictor.model = model;
    setJobs(jobs);
    ExploreReport report = runExplore(spec);
    setJobs(0);
    return renderExploreReport(report);
}

/** Cache the serial render; several tests compare against it. */
const std::string &
serialRender()
{
    static const std::string rendered = renderPinnedCampaign(1);
    return rendered;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

TEST(Explorer, AdaptiveLoopAccounting)
{
    ScenarioSet scenarios = pinnedScenarios();
    ExploreSpec spec = pinnedSpec(scenarios);
    ExploreReport report = runExplore(spec);

    // Budget 4 at 2 per round = 2 refinement rounds after the
    // held-out baseline row.
    ASSERT_EQ(report.rounds.size(), 3u);
    EXPECT_EQ(report.rounds[0].round, 0u);
    EXPECT_EQ(report.rounds[0].simulated, 4u); // the test points
    EXPECT_EQ(report.rounds[1].round, 1u);
    EXPECT_EQ(report.rounds[1].simulated, 2u);
    EXPECT_EQ(report.rounds[2].round, 2u);
    EXPECT_EQ(report.rounds[2].simulated, 2u);
    for (const auto &r : report.rounds) {
        ASSERT_EQ(r.meanAbsErrPct.size(), 3u);
        for (double e : r.meanAbsErrPct)
            EXPECT_GE(e, 0.0);
    }
    EXPECT_GT(report.rounds[1].frontSize, 0u);

    // Every refinement simulation lands in the training set.
    EXPECT_EQ(report.initialTrainPoints, 10u);
    EXPECT_EQ(report.finalTrainPoints, 14u);

    // The frontier is non-empty, mutually non-dominated, canonical.
    ASSERT_FALSE(report.frontier.empty());
    for (const auto &a : report.frontier)
        for (const auto &b : report.frontier)
            EXPECT_FALSE(dominates(a.scores, b.scores));
    for (std::size_t i = 1; i < report.frontier.size(); ++i)
        EXPECT_TRUE(canonicalLess(report.frontier[i - 1],
                                  report.frontier[i]));
    EXPECT_EQ(report.spaceSize, 245760u);
    EXPECT_EQ(report.scenarioCount, 3u);
}

TEST(Explorer, RejectsDegenerateSpecs)
{
    ScenarioSet scenarios = pinnedScenarios();
    ExploreSpec spec = pinnedSpec(scenarios);

    ExploreSpec noScenarios = spec;
    noScenarios.scenarios.clear();
    EXPECT_THROW(runExplore(noScenarios), std::invalid_argument);

    ExploreSpec noObjectives = spec;
    noObjectives.objectives.clear();
    EXPECT_THROW(runExplore(noObjectives), std::invalid_argument);

    ExploreSpec zeroPerRound = spec;
    zeroPerRound.perRound = 0;
    EXPECT_THROW(runExplore(zeroPerRound), std::invalid_argument);

    ExploreSpec unknownScenario = spec;
    unknownScenario.scenarios.push_back("no-such-benchmark");
    EXPECT_THROW(runExplore(unknownScenario), std::out_of_range);
}

TEST(Explorer, ZeroBudgetSkipsRefinement)
{
    ScenarioSet scenarios = pinnedScenarios();
    ExploreSpec spec = pinnedSpec(scenarios);
    spec.budget = 0;
    ExploreReport report = runExplore(spec);
    ASSERT_EQ(report.rounds.size(), 1u); // baseline only
    EXPECT_EQ(report.finalTrainPoints, report.initialTrainPoints);
    EXPECT_FALSE(report.frontier.empty());
}

/** Compare against a golden file (or rewrite it on request). */
void
expectGolden(const std::string &rendered, const char *path)
{
    if (std::getenv("WAVEDYN_UPDATE_GOLDEN")) {
        std::ofstream out(path, std::ios::binary);
        ASSERT_TRUE(out.good()) << "cannot write " << path;
        out << rendered;
        GTEST_SKIP() << "golden file regenerated: " << path;
    }

    std::string golden = readFile(path);
    ASSERT_FALSE(golden.empty())
        << "missing golden file " << path
        << " (regenerate with WAVEDYN_UPDATE_GOLDEN=1)";
    EXPECT_EQ(rendered, golden)
        << "explorer report drifted from the golden file; if "
           "intentional, regenerate with WAVEDYN_UPDATE_GOLDEN=1";
}

TEST(Explorer, GoldenReportMatchesByteForByte)
{
    expectGolden(serialRender(), kGoldenPath);
}

TEST(Explorer, LinearModelGoldenReportAtOneAndEightJobs)
{
    // Linear coefficient models take the sweep's non-RBF path; the
    // golden pins it at both job counts.
    std::string serial =
        renderPinnedCampaign(1, 64, CoefficientModel::Linear);
    EXPECT_EQ(serial,
              renderPinnedCampaign(8, 64, CoefficientModel::Linear));
    expectGolden(serial, kLinearGoldenPath);
}

TEST(Explorer, EightJobsReportIdenticalToSerial)
{
    EXPECT_EQ(serialRender(), renderPinnedCampaign(8));
}

TEST(Explorer, ChunkSizeDoesNotChangeTheReport)
{
    // Chunking only moves worker-local reduction boundaries; the
    // frontier merge and canonical ordering erase it.
    EXPECT_EQ(serialRender(), renderPinnedCampaign(1, 17));
    EXPECT_EQ(serialRender(), renderPinnedCampaign(8, 512));
}

} // anonymous namespace
} // namespace wavedyn
