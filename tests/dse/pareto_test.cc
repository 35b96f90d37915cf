/**
 * @file
 * Pareto frontier extraction tests: hand-built fronts with duplicates,
 * one-objective ties, single-point and all-dominated sets; a
 * brute-force cross-check on random point clouds; and the shard-merge
 * identity (front of per-shard fronts == front of everything) the
 * explorer's chunked sweep relies on; and the online chunk front the
 * sweep reduces each chunk with, checked bit for bit against
 * paretoFront.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "dse/pareto.hh"
#include "util/rng.hh"

namespace wavedyn
{
namespace
{

FrontPoint
fp(std::vector<double> scores, double tag = 0.0)
{
    FrontPoint p;
    p.point = {tag}; // distinct design points for tie-breaking
    p.scores = std::move(scores);
    p.values = p.scores;
    return p;
}

std::vector<std::vector<double>>
scoresOf(const std::vector<FrontPoint> &front)
{
    std::vector<std::vector<double>> out;
    for (const auto &p : front)
        out.push_back(p.scores);
    return out;
}

/** O(n^2) reference: keep points no other point dominates. */
std::vector<FrontPoint>
bruteFront(const std::vector<FrontPoint> &points)
{
    std::vector<FrontPoint> out;
    for (const auto &p : points) {
        bool dominated = false;
        for (const auto &q : points)
            dominated = dominated || dominates(q.scores, p.scores);
        if (!dominated)
            out.push_back(p);
    }
    std::sort(out.begin(), out.end(), canonicalLess);
    return out;
}

TEST(Dominates, StrictAndTies)
{
    EXPECT_TRUE(dominates({1.0, 2.0}, {1.0, 3.0}));
    EXPECT_TRUE(dominates({1.0, 2.0}, {2.0, 2.0}));
    EXPECT_TRUE(dominates({0.0, 0.0}, {1.0, 1.0}));
    EXPECT_FALSE(dominates({1.0, 2.0}, {1.0, 2.0})); // equal: neither
    EXPECT_FALSE(dominates({1.0, 3.0}, {2.0, 2.0})); // trade-off
    EXPECT_FALSE(dominates({2.0, 2.0}, {1.0, 3.0}));
}

TEST(ParetoFront, HandBuiltTwoObjective)
{
    // Front: (1,5), (2,3), (4,1). Dominated: (2,6) by (1,5); (5,5) by
    // everything; (4,2) by (4,1).
    auto front = paretoFront({fp({2.0, 6.0}, 1), fp({1.0, 5.0}, 2),
                              fp({5.0, 5.0}, 3), fp({2.0, 3.0}, 4),
                              fp({4.0, 2.0}, 5), fp({4.0, 1.0}, 6)});
    EXPECT_EQ(scoresOf(front),
              (std::vector<std::vector<double>>{
                  {1.0, 5.0}, {2.0, 3.0}, {4.0, 1.0}}));
}

TEST(ParetoFront, SinglePoint)
{
    auto front = paretoFront({fp({3.0, 3.0, 3.0})});
    ASSERT_EQ(front.size(), 1u);
    EXPECT_EQ(front[0].scores, (std::vector<double>{3.0, 3.0, 3.0}));
}

TEST(ParetoFront, EmptyInput)
{
    EXPECT_TRUE(paretoFront({}).empty());
}

TEST(ParetoFront, AllDominatedByOne)
{
    auto front = paretoFront({fp({5.0, 5.0}, 1), fp({1.0, 1.0}, 2),
                              fp({2.0, 1.0}, 3), fp({1.0, 2.0}, 4),
                              fp({9.0, 9.0}, 5)});
    ASSERT_EQ(front.size(), 1u);
    EXPECT_EQ(front[0].scores, (std::vector<double>{1.0, 1.0}));
}

TEST(ParetoFront, ExactDuplicatesBothSurvive)
{
    // Equal score vectors dominate in neither direction: both stay,
    // ordered by the design-point tie-break.
    auto front = paretoFront({fp({2.0, 2.0}, 7), fp({1.0, 3.0}, 1),
                              fp({2.0, 2.0}, 3)});
    ASSERT_EQ(front.size(), 3u);
    EXPECT_EQ(front[0].scores, (std::vector<double>{1.0, 3.0}));
    EXPECT_EQ(front[1].point, (DesignPoint{3.0}));
    EXPECT_EQ(front[2].point, (DesignPoint{7.0}));
}

TEST(ParetoFront, TiesOnOneObjective)
{
    // Same first score: only the minimal second score survives; an
    // equal second score at a larger first score is dominated too.
    auto front = paretoFront({fp({1.0, 4.0}, 1), fp({1.0, 2.0}, 2),
                              fp({1.0, 9.0}, 3), fp({3.0, 2.0}, 4)});
    EXPECT_EQ(scoresOf(front),
              (std::vector<std::vector<double>>{{1.0, 2.0}}));
}

TEST(ParetoFront, OneObjectiveKeepsAllMinimalTies)
{
    auto front = paretoFront({fp({2.0}, 1), fp({1.0}, 2), fp({1.0}, 3),
                              fp({5.0}, 4)});
    ASSERT_EQ(front.size(), 2u);
    EXPECT_EQ(front[0].scores, (std::vector<double>{1.0}));
    EXPECT_EQ(front[1].scores, (std::vector<double>{1.0}));
}

TEST(ParetoFront, InputOrderIrrelevant)
{
    std::vector<FrontPoint> pts = {fp({3.0, 1.0, 2.0}, 1),
                                   fp({1.0, 3.0, 2.0}, 2),
                                   fp({2.0, 2.0, 2.0}, 3),
                                   fp({3.0, 3.0, 3.0}, 4),
                                   fp({1.0, 3.0, 2.5}, 5)};
    auto sorted = paretoFront(pts);
    std::reverse(pts.begin(), pts.end());
    auto reversed = paretoFront(pts);
    ASSERT_EQ(sorted.size(), reversed.size());
    for (std::size_t i = 0; i < sorted.size(); ++i) {
        EXPECT_EQ(sorted[i].scores, reversed[i].scores);
        EXPECT_EQ(sorted[i].point, reversed[i].point);
    }
}

TEST(ParetoFront, MatchesBruteForceTwoAndThreeObjectives)
{
    Rng rng(0xbeef);
    for (std::size_t dims : {2u, 3u, 4u}) {
        for (int round = 0; round < 20; ++round) {
            std::vector<FrontPoint> pts;
            for (int i = 0; i < 60; ++i) {
                std::vector<double> s;
                for (std::size_t d = 0; d < dims; ++d)
                    s.push_back(static_cast<double>(rng.below(6)));
                pts.push_back(fp(std::move(s), i));
            }
            auto fast = paretoFront(pts);
            auto brute = bruteFront(pts);
            ASSERT_EQ(fast.size(), brute.size())
                << "dims=" << dims << " round=" << round;
            for (std::size_t i = 0; i < fast.size(); ++i) {
                EXPECT_EQ(fast[i].scores, brute[i].scores);
                EXPECT_EQ(fast[i].point, brute[i].point);
            }
        }
    }
}

TEST(ParetoFront, ShardMergeEqualsSingleShot)
{
    Rng rng(0xcafe);
    std::vector<FrontPoint> all;
    for (int i = 0; i < 200; ++i) {
        std::vector<double> s = {static_cast<double>(rng.below(12)),
                                 static_cast<double>(rng.below(12)),
                                 static_cast<double>(rng.below(12))};
        all.push_back(fp(std::move(s), i));
    }
    auto single = paretoFront(all);

    for (std::size_t shards : {2u, 3u, 7u}) {
        std::vector<std::vector<FrontPoint>> parts(shards);
        for (std::size_t i = 0; i < all.size(); ++i)
            parts[i % shards].push_back(all[i]);
        for (auto &part : parts)
            part = paretoFront(std::move(part));
        auto merged = mergeFronts(std::move(parts));
        ASSERT_EQ(merged.size(), single.size()) << shards << " shards";
        for (std::size_t i = 0; i < merged.size(); ++i) {
            EXPECT_EQ(merged[i].scores, single[i].scores);
            EXPECT_EQ(merged[i].point, single[i].point);
        }
    }
}

bool
sameBits(const std::vector<double> &a, const std::vector<double> &b)
{
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/** ChunkFront over @p pts (add() order = vector order). */
ChunkFront
chunkOf(const std::vector<FrontPoint> &pts, std::size_t nobj)
{
    ChunkFront chunk(nobj, pts.size());
    for (std::size_t i = 0; i < pts.size(); ++i) {
        double *row = chunk.nextRow();
        std::copy(pts[i].scores.begin(), pts[i].scores.end(), row);
        std::copy(pts[i].values.begin(), pts[i].values.end(), row + nobj);
        row[2 * nobj] = pts[i].uncertainty;
        chunk.add(i);
    }
    return chunk;
}

/** chunk.front() equals paretoFront(pts) bit for bit. */
void
expectSameFront(const ChunkFront &chunk, const std::vector<FrontPoint> &pts)
{
    auto flat = chunk.front([&](std::size_t id) { return pts[id].point; });
    auto ref = paretoFront(pts);
    ASSERT_EQ(flat.size(), ref.size());
    for (std::size_t i = 0; i < ref.size(); ++i) {
        EXPECT_TRUE(sameBits(flat[i].scores, ref[i].scores)) << i;
        EXPECT_TRUE(sameBits(flat[i].values, ref[i].values)) << i;
        EXPECT_TRUE(sameBits({flat[i].uncertainty}, {ref[i].uncertainty}))
            << i;
        EXPECT_EQ(flat[i].point, ref[i].point) << i;
    }
}

TEST(ChunkFront, MatchesParetoFrontBitwise)
{
    // Scores from a small pool — exact-tie groups, both zeros — plus
    // verbatim copies of earlier points' scores; values and the
    // uncertainty are random, so a swapped point shows in the bits.
    const double pool[] = {-0.0, 0.0, 1.0, 2.0, 0.5, -1.0, 3.0};
    Rng rng(0xf1a7);
    for (std::size_t nobj = 1; nobj <= 4; ++nobj) {
        for (int round = 0; round < 40; ++round) {
            std::vector<FrontPoint> pts;
            std::size_t n = 1 + rng.below(150);
            for (std::size_t i = 0; i < n; ++i) {
                FrontPoint p;
                p.point = {static_cast<double>(i), rng.uniform()};
                if (!pts.empty() && rng.below(4) == 0) {
                    p.scores = pts[rng.below(pts.size())].scores;
                } else {
                    for (std::size_t k = 0; k < nobj; ++k)
                        p.scores.push_back(pool[rng.below(7)]);
                }
                for (std::size_t k = 0; k < nobj; ++k)
                    p.values.push_back(rng.uniform());
                p.uncertainty = rng.uniform();
                pts.push_back(std::move(p));
            }
            ChunkFront chunk = chunkOf(pts, nobj);
            // Online, the kept rows are already exactly the front.
            EXPECT_EQ(chunk.kept(), paretoFront(pts).size())
                << "nobj=" << nobj << " round=" << round;
            expectSameFront(chunk, pts);
        }
    }
}

TEST(ChunkFront, NaNScoresKeepEveryRow)
{
    // A NaN score makes dominance intransitive: from then on nothing
    // is dropped and front() hands paretoFront every point.
    std::vector<FrontPoint> pts = {fp({1.0, 1.0}, 0), fp({2.0, 2.0}, 1),
                                   fp({std::nan(""), 0.0}, 2),
                                   fp({3.0, 3.0}, 3)};
    ChunkFront chunk = chunkOf(pts, 2);
    EXPECT_EQ(chunk.kept(), pts.size());
    expectSameFront(chunk, pts);
}

TEST(ParetoFront, CanonicalOrderIsSorted)
{
    Rng rng(0xf00d);
    std::vector<FrontPoint> pts;
    for (int i = 0; i < 100; ++i)
        pts.push_back(fp({rng.uniform(), rng.uniform()}, i));
    auto front = paretoFront(pts);
    EXPECT_TRUE(std::is_sorted(front.begin(), front.end(),
                               canonicalLess));
}

} // anonymous namespace
} // namespace wavedyn
