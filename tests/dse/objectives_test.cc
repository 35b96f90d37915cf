/**
 * @file
 * Objective definition tests: name round-trips, list parsing errors,
 * domain requirements, the trace-to-scalar evaluations (including
 * the minimisation fold for maximised objectives), and the one-pass
 * multi-objective form checked bit for bit against per-objective
 * loops.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <stdexcept>
#include <utility>

#include "dse/objectives.hh"
#include "util/rng.hh"

namespace wavedyn
{
namespace
{

TEST(Objectives, NamesRoundTrip)
{
    for (Objective o : allObjectives()) {
        Objective parsed;
        ASSERT_TRUE(parseObjective(objectiveName(o), parsed))
            << objectiveName(o);
        EXPECT_EQ(parsed, o);
    }
}

TEST(Objectives, ParseListHappyPath)
{
    auto objs = parseObjectiveList("cpi,energy,avf");
    ASSERT_EQ(objs.size(), 3u);
    EXPECT_EQ(objs[0], Objective::Cpi);
    EXPECT_EQ(objs[1], Objective::Energy);
    EXPECT_EQ(objs[2], Objective::Avf);

    auto one = parseObjectiveList("bips");
    ASSERT_EQ(one.size(), 1u);
    EXPECT_EQ(one[0], Objective::Bips);
}

TEST(Objectives, ParseListRejectsBadInput)
{
    EXPECT_THROW(parseObjectiveList(""), std::invalid_argument);
    EXPECT_THROW(parseObjectiveList("cpi,"), std::invalid_argument);
    EXPECT_THROW(parseObjectiveList(",cpi"), std::invalid_argument);
    EXPECT_THROW(parseObjectiveList("cpi,watts"), std::invalid_argument);
    EXPECT_THROW(parseObjectiveList("cpi,cpi"), std::invalid_argument);
    EXPECT_THROW(parseObjectiveList("CPI"), std::invalid_argument);
}

TEST(Objectives, DomainRequirements)
{
    EXPECT_EQ(domainsOf(Objective::Cpi),
              (std::vector<Domain>{Domain::Cpi}));
    EXPECT_EQ(domainsOf(Objective::Energy),
              (std::vector<Domain>{Domain::Cpi, Domain::Power}));
    EXPECT_EQ(domainsOf(Objective::Avf),
              (std::vector<Domain>{Domain::Avf}));

    // Union is deduplicated and in allDomains() order.
    auto domains = domainsFor({Objective::Energy, Objective::Cpi,
                               Objective::Avf});
    EXPECT_EQ(domains, (std::vector<Domain>{Domain::Cpi, Domain::Power,
                                            Domain::Avf}));
    EXPECT_EQ(domainsFor({Objective::Bips}),
              (std::vector<Domain>{Domain::Cpi}));
}

TEST(Objectives, ValuesFromTraces)
{
    std::map<Domain, std::vector<double>> traces;
    traces[Domain::Cpi] = {1.0, 2.0, 3.0};   // mean 2
    traces[Domain::Power] = {10.0, 20.0, 30.0}; // mean 20
    traces[Domain::Avf] = {0.1, 0.2, 0.3};   // mean 0.2

    EXPECT_DOUBLE_EQ(objectiveValue(Objective::Cpi, traces), 2.0);
    EXPECT_DOUBLE_EQ(objectiveValue(Objective::Power, traces), 20.0);
    EXPECT_DOUBLE_EQ(objectiveValue(Objective::Avf, traces), 0.2);
    EXPECT_DOUBLE_EQ(objectiveValue(Objective::Bips, traces), 0.5);
    // Energy: mean of the interval-wise product, not product of means:
    // (10*1 + 20*2 + 30*3) / 3 = 140/3.
    EXPECT_DOUBLE_EQ(objectiveValue(Objective::Energy, traces),
                     140.0 / 3.0);
}

TEST(Objectives, ScoreFoldsMaximisedObjectives)
{
    std::map<Domain, std::vector<double>> traces;
    traces[Domain::Cpi] = {2.0, 2.0};
    EXPECT_DOUBLE_EQ(objectiveScore(Objective::Cpi, traces), 2.0);
    EXPECT_TRUE(maximised(Objective::Bips));
    EXPECT_DOUBLE_EQ(objectiveScore(Objective::Bips, traces), -0.5);
    EXPECT_FALSE(maximised(Objective::Energy));
}

/** The plain per-objective mean, one loop each, as a reference. */
double
referenceValue(Objective o, const std::vector<double> &cpi,
               const std::vector<double> &power,
               const std::vector<double> &avf)
{
    auto mean = [](const std::vector<double> &t) {
        double acc = 0.0;
        for (double v : t)
            acc += v;
        return acc / static_cast<double>(t.size());
    };
    switch (o) {
      case Objective::Cpi:
        return mean(cpi);
      case Objective::Bips:
        return mean(cpi) > 0.0 ? 1.0 / mean(cpi) : 0.0;
      case Objective::Power:
        return mean(power);
      case Objective::Energy: {
        double acc = 0.0;
        for (std::size_t i = 0; i < cpi.size(); ++i)
            acc += power[i] * cpi[i];
        return acc / static_cast<double>(cpi.size());
      }
      case Objective::Avf:
        return mean(avf);
    }
    return 0.0;
}

bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

TEST(Objectives, OnePassMatchesPerObjectiveLoopsBitwise)
{
    // Every objective list up to all five, in several orders, over
    // three runs with traces whose sums round differently in every
    // order. AVF runs longer than CPI/power in run 0 and shorter in
    // run 1 (Energy needs only those two equal); run 2 is shorter.
    struct Run
    {
        std::vector<double> cpi, power, avf;
    };
    Rng rng(0x0b1);
    auto fill = [&](std::size_t n, double lo, double hi) {
        std::vector<double> t(n);
        for (double &v : t)
            v = rng.uniform(lo, hi);
        return t;
    };
    std::vector<Run> runs;
    for (auto [n, navf] : {std::pair<std::size_t, std::size_t>{128, 131},
                           {128, 100},
                           {64, 64}})
        runs.push_back({fill(n, 0.3, 3.0), fill(n, 5.0, 60.0),
                        fill(navf, 0.0, 0.7)});
    std::vector<DomainTraceRefs> refs(runs.size());
    for (std::size_t r = 0; r < runs.size(); ++r) {
        auto at = [&](Domain d) -> TraceRef & {
            return refs[r][static_cast<std::size_t>(d)];
        };
        at(Domain::Cpi) = {runs[r].cpi.data(), runs[r].cpi.size()};
        at(Domain::Power) = {runs[r].power.data(), runs[r].power.size()};
        at(Domain::Avf) = {runs[r].avf.data(), runs[r].avf.size()};
    }

    std::vector<Objective> all = allObjectives();
    for (int round = 0; round < 50; ++round) {
        std::vector<Objective> list = all;
        for (std::size_t i = list.size(); i > 1; --i)
            std::swap(list[i - 1], list[rng.below(i)]);
        list.resize(1 + rng.below(list.size()));
        const std::size_t count = list.size();
        for (std::size_t r = 0; r < runs.size(); ++r) {
            std::vector<double> values(count), scores(count);
            objectiveValues(list.data(), count, refs[r], values.data());
            objectiveScores(list.data(), count, refs[r], scores.data());
            for (std::size_t k = 0; k < count; ++k) {
                double want = referenceValue(list[k], runs[r].cpi,
                                             runs[r].power, runs[r].avf);
                EXPECT_TRUE(sameBits(values[k], want))
                    << objectiveName(list[k]) << " run " << r
                    << ", list of " << count;
                EXPECT_TRUE(sameBits(scores[k],
                                     maximised(list[k]) ? -want : want));
                EXPECT_TRUE(
                    sameBits(objectiveValue(list[k], refs[r]), want));
            }
        }
    }
}

} // anonymous namespace
} // namespace wavedyn
