/**
 * @file
 * Tests for the Table 2 design space.
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "sim/design_space.hh"

namespace wavedyn
{
namespace
{

TEST(DesignSpace, PaperHasNineParameters)
{
    auto space = DesignSpace::paper();
    EXPECT_EQ(space.dimensions(), static_cast<std::size_t>(PaperParamCount));
    EXPECT_EQ(space.dimensions(), 9u);
}

TEST(DesignSpace, Table2TrainLevels)
{
    auto space = DesignSpace::paper();
    EXPECT_EQ(space.param(FetchWidth).trainLevels,
              (std::vector<double>{2, 4, 8, 16}));
    EXPECT_EQ(space.param(RobSize).trainLevels,
              (std::vector<double>{96, 128, 160}));
    EXPECT_EQ(space.param(IqSize).trainLevels,
              (std::vector<double>{32, 64, 96, 128}));
    EXPECT_EQ(space.param(LsqSize).trainLevels,
              (std::vector<double>{16, 24, 32, 64}));
    EXPECT_EQ(space.param(L2Size).trainLevels,
              (std::vector<double>{256, 1024, 2048, 4096}));
    EXPECT_EQ(space.param(L2Lat).trainLevels,
              (std::vector<double>{8, 12, 14, 16, 20}));
    EXPECT_EQ(space.param(Il1Size).trainLevels,
              (std::vector<double>{8, 16, 32, 64}));
    EXPECT_EQ(space.param(Dl1Size).trainLevels,
              (std::vector<double>{8, 16, 32, 64}));
    EXPECT_EQ(space.param(Dl1Lat).trainLevels,
              (std::vector<double>{1, 2, 3, 4}));
}

TEST(DesignSpace, Table2TestLevelsAreSubsets)
{
    auto space = DesignSpace::paper();
    for (std::size_t i = 0; i < space.dimensions(); ++i) {
        const auto &p = space.param(i);
        EXPECT_FALSE(p.testLevels.empty()) << p.name;
        for (double t : p.testLevels) {
            bool found = false;
            for (double v : p.trainLevels)
                found = found || v == t;
            EXPECT_TRUE(found) << p.name << " level " << t;
        }
    }
}

TEST(DesignSpace, Table2LevelCounts)
{
    // "# of Levels" column of Table 2.
    auto space = DesignSpace::paper();
    EXPECT_EQ(space.param(FetchWidth).levels(), 4u);
    EXPECT_EQ(space.param(RobSize).levels(), 3u);
    EXPECT_EQ(space.param(IqSize).levels(), 4u);
    EXPECT_EQ(space.param(LsqSize).levels(), 4u);
    EXPECT_EQ(space.param(L2Size).levels(), 4u);
    EXPECT_EQ(space.param(L2Lat).levels(), 5u);
    EXPECT_EQ(space.param(Il1Size).levels(), 4u);
    EXPECT_EQ(space.param(Dl1Size).levels(), 4u);
    EXPECT_EQ(space.param(Dl1Lat).levels(), 4u);
}

TEST(DesignSpace, TrainSpaceSize)
{
    auto space = DesignSpace::paper();
    // 4*3*4*4*4*5*4*4*4 = 245760 configurations.
    EXPECT_EQ(space.trainSpaceSize(), 245760u);
}

TEST(DesignSpace, ParamIndexByName)
{
    auto space = DesignSpace::paper();
    EXPECT_EQ(space.paramIndex("ROB_size"),
              static_cast<std::size_t>(RobSize));
    EXPECT_EQ(space.paramIndex("dl1_lat"),
              static_cast<std::size_t>(Dl1Lat));
}

TEST(DesignSpace, NormalizeEndpoints)
{
    auto space = DesignSpace::paper();
    DesignPoint lo, hi;
    for (std::size_t i = 0; i < space.dimensions(); ++i) {
        lo.push_back(space.param(i).trainLevels.front());
        hi.push_back(space.param(i).trainLevels.back());
    }
    auto nlo = space.normalize(lo);
    auto nhi = space.normalize(hi);
    for (std::size_t i = 0; i < space.dimensions(); ++i) {
        EXPECT_DOUBLE_EQ(nlo[i], 0.0);
        EXPECT_DOUBLE_EQ(nhi[i], 1.0);
    }
}

TEST(DesignSpace, NormalizeUsesLevelIndexNotValue)
{
    auto space = DesignSpace::paper();
    // L2 sizes {256,1024,2048,4096}: 1024 is level 1 of 3 -> 1/3.
    const auto &l2 = space.param(L2Size);
    EXPECT_NEAR(l2.normalize(1024), 1.0 / 3.0, 1e-12);
    EXPECT_NEAR(l2.normalize(2048), 2.0 / 3.0, 1e-12);
}

TEST(DesignSpace, NormalizeInterpolatesOffGrid)
{
    auto space = DesignSpace::paper();
    const auto &l2 = space.param(L2Size);
    double mid = l2.normalize(640); // halfway between 256 and 1024
    EXPECT_GT(mid, 0.0);
    EXPECT_LT(mid, 1.0 / 3.0);
}

TEST(DesignSpace, PointFromTrainIndices)
{
    auto space = DesignSpace::paper();
    std::vector<std::size_t> idx(space.dimensions(), 0);
    idx[FetchWidth] = 2; // 8-wide
    auto p = space.pointFromTrainIndices(idx);
    EXPECT_DOUBLE_EQ(p[FetchWidth], 8.0);
    EXPECT_DOUBLE_EQ(p[RobSize], 96.0);
}

TEST(DesignSpace, PointFromTestIndices)
{
    auto space = DesignSpace::paper();
    std::vector<std::size_t> idx(space.dimensions(), 0);
    auto p = space.pointFromTestIndices(idx);
    EXPECT_DOUBLE_EQ(p[FetchWidth], 2.0);
    EXPECT_DOUBLE_EQ(p[Dl1Size], 16.0); // first *test* level, not train
}

TEST(DesignSpace, ValidChecksLevels)
{
    auto space = DesignSpace::paper();
    std::vector<std::size_t> idx(space.dimensions(), 0);
    auto p = space.pointFromTrainIndices(idx);
    EXPECT_TRUE(space.valid(p));
    p[FetchWidth] = 3.0; // not a level
    EXPECT_FALSE(space.valid(p));
    p.pop_back();
    EXPECT_FALSE(space.valid(p));
}

TEST(DesignSpace, AddParameterExtendsSpace)
{
    auto space = DesignSpace::paper();
    std::size_t idx = space.addParameter(
        {"DVM_threshold", {0.2, 0.3, 0.5}, {0.2, 0.3, 0.5}});
    EXPECT_EQ(space.dimensions(), 10u);
    EXPECT_EQ(idx, 9u);
    EXPECT_EQ(space.paramIndex("DVM_threshold"), 9u);
}

TEST(DesignSpace, NamesInOrder)
{
    auto space = DesignSpace::paper();
    auto names = space.names();
    ASSERT_EQ(names.size(), 9u);
    EXPECT_EQ(names.front(), "Fetch_width");
    EXPECT_EQ(names.back(), "dl1_lat");
}

TEST(Parameter, LevelIndexFindsValue)
{
    Parameter p{"x", {1, 2, 4}, {1}};
    EXPECT_EQ(p.levelIndex(1), 0u);
    EXPECT_EQ(p.levelIndex(4), 2u);
}

TEST(Parameter, LevelIndexThrowsOnOffGridValue)
{
    // Release builds must not silently map an off-grid value to
    // level 0: the grid kernel indexes tables with the result.
    Parameter p{"ROB_size", {96, 128, 160}, {128}};
    try {
        p.levelIndex(100);
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument &e) {
        std::string what = e.what();
        EXPECT_NE(what.find("ROB_size"), std::string::npos) << what;
        EXPECT_NE(what.find("100"), std::string::npos) << what;
    }
}

TEST(DesignSpace, TrainIndicesInvertPointFromTrainIndices)
{
    auto space = DesignSpace::paper();
    std::vector<std::size_t> idx;
    for (std::size_t flat : {std::size_t{0}, std::size_t{12345},
                             space.trainSpaceSize() - 1}) {
        space.flatTrainIndices(flat, idx);
        DesignPoint p = space.pointFromFlatTrainIndex(flat);
        EXPECT_EQ(space.pointFromTrainIndices(idx), p);
        EXPECT_EQ(space.trainIndices(p), idx);
    }
}

TEST(DesignSpace, FlatIndexPastTheSpaceThrows)
{
    auto space = DesignSpace::paper();
    const std::size_t size = space.trainSpaceSize();
    std::vector<std::size_t> idx;
    EXPECT_NO_THROW(space.flatTrainIndices(size - 1, idx));
    // Without the check these would wrap round to flat 0 and 1.
    for (std::size_t flat : {size, size + 1, 3 * size}) {
        try {
            space.flatTrainIndices(flat, idx);
            FAIL() << "expected std::out_of_range for " << flat;
        } catch (const std::out_of_range &e) {
            std::string what = e.what();
            EXPECT_NE(what.find(std::to_string(flat)), std::string::npos)
                << what;
            EXPECT_NE(what.find(std::to_string(size)), std::string::npos)
                << what;
        }
        EXPECT_THROW(space.pointFromFlatTrainIndex(flat), std::out_of_range);
    }
    DesignSpace empty;
    EXPECT_NO_THROW(empty.flatTrainIndices(0, idx));
    EXPECT_THROW(empty.flatTrainIndices(1, idx), std::out_of_range);
}

TEST(DesignSpace, TrainIndicesRejectOffGridPoints)
{
    auto space = DesignSpace::paper();
    DesignPoint off = space.pointFromFlatTrainIndex(7);
    off[L2Lat] = 9.0;
    try {
        space.trainIndices(off);
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument &e) {
        EXPECT_EQ(std::string(e.what()), space.validationError(off));
    }
    EXPECT_THROW(space.trainIndices({2.0}), std::invalid_argument);
}

TEST(Parameter, SingleLevelNormalizesToZero)
{
    Parameter p{"x", {5}, {5}};
    EXPECT_DOUBLE_EQ(p.normalize(5), 0.0);
}

} // anonymous namespace
} // namespace wavedyn
