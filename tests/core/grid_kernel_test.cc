/**
 * @file
 * Grid kernel tests: over a strided sweep touching every level of
 * every dimension, the compiled kernel must reproduce per-point
 * predictTrace byte for byte — for every coefficient-model family,
 * both fitting strategies, the non-Haar transform and the clamp on
 * and off — and a bank trained on shared points must compile to fewer
 * distinct units than it holds.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>

#include "core/grid_kernel.hh"
#include "core/sampling.hh"
#include "core/serialize.hh"
#include "util/rng.hh"

namespace wavedyn
{
namespace
{

/** A nonlinear synthetic trace family; @p variant shifts its shape. */
std::vector<double>
syntheticTrace(const std::vector<double> &norm, std::size_t n,
               double variant)
{
    std::vector<double> t(n);
    double base = 1.0 + 2.0 * std::exp(-2.5 * norm[L2Size]) *
                            (1.5 - norm[Dl1Size]) +
                  variant * norm[Dl1Lat];
    double amp = 0.2 + 0.9 * norm[FetchWidth] * (1.0 - 0.5 * norm[L2Lat]);
    double step = (norm[RobSize] > 0.4 && norm[LsqSize] > 0.3) ? 0.8 : 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        double phase = static_cast<double>(i) / static_cast<double>(n);
        t[i] = base + amp * std::sin(2.0 * M_PI * (3.0 + variant) * phase) +
               (phase > 0.5 ? step : 0.0) + 0.1 * norm[IqSize] * phase;
    }
    return t;
}

struct Training
{
    DesignSpace space = DesignSpace::paper();
    std::vector<DesignPoint> points;
};

Training
makeTraining(std::size_t n)
{
    Training t;
    Rng rng(11);
    t.points = bestLatinHypercube(t.space, n, 4, rng);
    return t;
}

WaveletNeuralPredictor
trainOn(const Training &t, const PredictorOptions &opts, double variant,
        std::size_t len = 64)
{
    std::vector<std::vector<double>> traces;
    for (const auto &p : t.points)
        traces.push_back(
            syntheticTrace(t.space.normalize(p), len, variant));
    WaveletNeuralPredictor pred(opts);
    pred.train(t.space, t.points, traces);
    return pred;
}

/**
 * Every 97th configuration of the paper space (~2.5k points; the test
 * asserts it reaches every level of every dimension), then a
 * contiguous run — consecutive points share long level prefixes, the
 * case the kernel's running sums reuse — ending on a repeated point.
 */
std::vector<std::size_t>
sweepOrder(const DesignSpace &space)
{
    std::vector<std::size_t> out;
    for (std::size_t f = 0; f < space.trainSpaceSize(); f += 97)
        out.push_back(f);
    for (std::size_t f = 100000; f < 100300; ++f)
        out.push_back(f);
    out.push_back(out.back());
    return out;
}

bool
sameBytes(const double *a, const std::vector<double> &b)
{
    return std::memcmp(a, b.data(), b.size() * sizeof(double)) == 0;
}

/** Kernel traces of @p bank equal each predictor's predictTrace. */
void
expectBitIdentical(const std::vector<const WaveletNeuralPredictor *> &bank)
{
    GridKernel kernel(bank);
    const DesignSpace &space = kernel.designSpace();
    GridScratch ws = kernel.scratch();
    std::vector<std::size_t> levels;
    std::vector<std::vector<bool>> seen(space.dimensions());
    for (std::size_t d = 0; d < space.dimensions(); ++d)
        seen[d].assign(space.param(d).levels(), false);

    std::size_t mismatches = 0;
    for (std::size_t flat : sweepOrder(space)) {
        space.flatTrainIndices(flat, levels);
        DesignPoint point = space.pointFromFlatTrainIndex(flat);
        for (std::size_t d = 0; d < levels.size(); ++d)
            seen[d][levels[d]] = true;
        kernel.evaluate(levels, ws);
        for (std::size_t p = 0; p < bank.size(); ++p) {
            std::vector<double> expect = bank[p]->predictTrace(point);
            ASSERT_EQ(kernel.traceLength(p), expect.size());
            if (!sameBytes(ws.trace(p), expect) && ++mismatches <= 3)
                ADD_FAILURE() << "predictor " << p << " differs at flat "
                              << flat;
        }
    }
    EXPECT_EQ(mismatches, 0u);
    for (std::size_t d = 0; d < seen.size(); ++d)
        for (std::size_t l = 0; l < seen[d].size(); ++l)
            EXPECT_TRUE(seen[d][l]) << "dim " << d << " level " << l;
}

void
expectBitIdentical(const PredictorOptions &opts)
{
    Training t = makeTraining(40);
    WaveletNeuralPredictor pred = trainOn(t, opts, 0.0);
    expectBitIdentical({&pred});
}

TEST(GridKernel, RbfForwardGcvBitIdentical)
{
    expectBitIdentical(PredictorOptions{});
}

TEST(GridKernel, RbfRidgeAllUnclampedBitIdentical)
{
    PredictorOptions opts;
    opts.rbf.fit = RbfFit::RidgeAll;
    opts.clampToTrainingRange = false;
    expectBitIdentical(opts);
}

TEST(GridKernel, LinearModelBitIdentical)
{
    PredictorOptions opts;
    opts.model = CoefficientModel::Linear;
    expectBitIdentical(opts);
}

TEST(GridKernel, GlobalMeanModelBitIdentical)
{
    PredictorOptions opts;
    opts.model = CoefficientModel::GlobalMean;
    opts.clampToTrainingRange = false;
    expectBitIdentical(opts);
}

TEST(GridKernel, Daubechies4TransformBitIdentical)
{
    PredictorOptions opts;
    opts.paperHaar = false;
    opts.mother = MotherWavelet::Daubechies4;
    expectBitIdentical(opts);
}

TEST(GridKernel, SharedPointBankDeduplicatesUnits)
{
    // Two "scenarios" x two trace lengths, one training set: the
    // seeding trees split the same points, so units repeat.
    Training t = makeTraining(40);
    PredictorOptions opts;
    WaveletNeuralPredictor a = trainOn(t, opts, 0.0);
    WaveletNeuralPredictor b = trainOn(t, opts, 0.5);
    WaveletNeuralPredictor c = trainOn(t, opts, 0.5, 128);
    GridKernel kernel({&a, &b, &c});
    EXPECT_GT(kernel.sharedUnits(), 0u);
    EXPECT_LT(kernel.sharedUnits(), kernel.rawUnits());

    std::size_t raw = 0;
    for (const auto *p : {&a, &b, &c})
        for (const auto &m : p->coefficientModels())
            raw += static_cast<const RbfNetwork &>(*m).units().size();
    EXPECT_EQ(kernel.rawUnits(), raw);

    // Sharing a unit must not change any predictor's bytes.
    expectBitIdentical({&a, &b, &c});
}

TEST(GridKernel, MixedModelBankBitIdentical)
{
    // RBF and fallback predictors side by side in one kernel.
    Training t = makeTraining(40);
    PredictorOptions linear;
    linear.model = CoefficientModel::Linear;
    PredictorOptions db4;
    db4.paperHaar = false;
    db4.mother = MotherWavelet::Daubechies4;
    WaveletNeuralPredictor a = trainOn(t, PredictorOptions{}, 0.0);
    WaveletNeuralPredictor b = trainOn(t, linear, 0.3);
    WaveletNeuralPredictor c = trainOn(t, db4, 0.6);
    expectBitIdentical({&a, &b, &c});
}

TEST(GridKernel, FarUnitTermsSkippedOnlyWhenTheyCannotMoveTheSum)
{
    // One unit at x = 0 narrow enough that from level 1 on its z^2 sum
    // is past the kernel's skip threshold (65 at level 1), shared by
    // three coefficient models:
    //   slot 0: bias 1, weight 3.5e13 -> the term (~2e-15, about 9
    //           ulps of 1) moves the sum, though the weight is only
    //           2^45 times the sum;
    //   slot 1: bias 1, weight 1    -> the term cannot move the sum;
    //   slot 2: bias 0, weight 1    -> zero accumulator, always added.
    std::istringstream snapshot(R"(wavedyn-predictor-v1
options 3 magnitude rbf 1 haar 0
space 1
x 9 0 1 2 3 4 5 6 7 8 1 0
trace 4 0 1
selected 3
0 1
1 1
2 1
models 3
rbf-network 1 1 1
0 0.015504341823651058 3.5e13
rbf-network 1 1 1
0 0.015504341823651058 1
rbf-network 0 1 1
0 0.015504341823651058 1
)");
    WaveletNeuralPredictor pred = loadPredictor(snapshot);
    GridKernel kernel({&pred});
    EXPECT_EQ(kernel.sharedUnits(), 1u);
    EXPECT_EQ(kernel.rawUnits(), 3u);
    GridScratch ws = kernel.scratch();
    for (std::size_t level = 0; level < 9; ++level) {
        kernel.evaluate({level}, ws);
        std::vector<double> expect =
            pred.predictTrace({static_cast<double>(level)});
        EXPECT_TRUE(sameBytes(ws.trace(0), expect)) << "level " << level;
    }
    // The large-weight term really is in the level-1 prediction.
    EXPECT_NE(pred.predictTrace({1.0}), pred.predictTrace({8.0}));
}

/** A number as the predictor snapshot reader reads it back exactly. */
std::string
exact(double v)
{
    std::ostringstream os;
    os.precision(17);
    os << v;
    return os.str();
}

/**
 * A paper-Haar predictor over x = 0..8 (normalised l / 8), trace
 * length 4, no clamp, whose coefficient slots 0.. hold @p models
 * (snapshot text, one "rbf-network ..." record each).
 */
WaveletNeuralPredictor
handBuilt(const std::vector<std::string> &models)
{
    std::ostringstream os;
    os << "wavedyn-predictor-v1\noptions " << models.size()
       << " magnitude rbf 1 haar 0\nspace 1\n"
       << "x 9 0 1 2 3 4 5 6 7 8 1 0\ntrace 4 0 1\nselected "
       << models.size() << "\n";
    for (std::size_t s = 0; s < models.size(); ++s)
        os << s << " 1\n";
    os << "models " << models.size() << "\n";
    for (const auto &m : models)
        os << m;
    std::istringstream is(os.str());
    return loadPredictor(is);
}

/**
 * Every level of @p pred's kernel equals predictTrace byte for byte;
 * returns how many models the guard sent to the exact fallback.
 */
std::uint64_t
expectHandBuiltBitIdentical(const WaveletNeuralPredictor &pred)
{
    GridKernel kernel({&pred});
    GridScratch ws = kernel.scratch();
    for (std::size_t level = 0; level < 9; ++level) {
        kernel.evaluate({level}, ws);
        std::vector<double> expect =
            pred.predictTrace({static_cast<double>(level)});
        EXPECT_TRUE(sameBytes(ws.trace(0), expect)) << "level " << level;
    }
    return ws.guardFallbacks();
}

// One unit at x = 0 with radius 0.0155...: from level 1 on its z^2
// sum is past the far threshold (65 at level 1). One unit at x = 1/8
// with radius 1: near everywhere, response exactly 1 at level 1.
const char *const kFarUnit = "0 0.015504341823651058";
const char *const kNearUnit = "0.125 1";

TEST(GridKernel, GuardFallsBackOnAFarWeightFarAboveTheSum)
{
    // bias 1, far weight 3.5e13 (2^45 > 2^32 times the sum): the far
    // term moves the sum at level 1, so the guard must not hold.
    WaveletNeuralPredictor pred = handBuilt(
        {"rbf-network 1 1 1\n" + std::string(kFarUnit) + " 3.5e13\n"});
    EXPECT_GT(expectHandBuiltBitIdentical(pred), 0u);
}

TEST(GridKernel, GuardFallsBackWhenAPartialSumCrossesZero)
{
    // bias 1, then the near term -(1 + 2^-40) * 1 takes the sum to
    // -2^-40 at level 1, where the far term 1e6 * e^-65 (~6e-23) is
    // no longer negligible.
    WaveletNeuralPredictor pred = handBuilt(
        {"rbf-network 1 2 1\n" + std::string(kNearUnit) + " " +
         exact(-(1.0 + std::ldexp(1.0, -40))) + "\n" + kFarUnit +
         " 1e6\n"});
    // Trace sample 0 of coefficients (c, 0, 0, 0) is c itself.
    EXPECT_NE(pred.predictTrace({1.0})[0], -std::ldexp(1.0, -40))
        << "the far term must move the level-1 sum";
    EXPECT_GT(expectHandBuiltBitIdentical(pred), 0u);
}

TEST(GridKernel, GuardFallsBackOnAnInfiniteWeight)
{
    // 1 + inf * e^-65 is inf; the chain's 1 + inf * 0.0 would be NaN.
    WaveletNeuralPredictor pred = handBuilt(
        {"rbf-network 1 1 1\n" + std::string(kFarUnit) + " 1\n"});
    // The snapshot reader takes no infinities: set the weight in
    // place. The unit lives in a non-const vector behind the const
    // accessor, so the write is well defined.
    auto *rbf = static_cast<RbfNetwork *>(
        pred.coefficientModels()[0].get());
    const_cast<RbfUnit &>(rbf->units()[0]).weight =
        std::numeric_limits<double>::infinity();
    ASSERT_TRUE(std::isinf(pred.predictTrace({1.0})[0]));
    EXPECT_GT(expectHandBuiltBitIdentical(pred), 0u);
}

TEST(GridKernel, GuardFallsBackOnAZeroBiasWithNoTerms)
{
    WaveletNeuralPredictor pred = handBuilt({"rbf-network 0 0 1\n"});
    EXPECT_EQ(expectHandBuiltBitIdentical(pred), 9u);
}

TEST(GridKernel, GuardHoldsOnOrdinaryModelsAndCountsExps)
{
    // bias 1, weights near 1: no partial sum gets small, so no model
    // falls back, and each point takes exactly one exp per near unit.
    WaveletNeuralPredictor pred = handBuilt(
        {"rbf-network 1 2 1\n" + std::string(kNearUnit) + " 0.5\n" +
             kFarUnit + " 1\n",
         "rbf-network 2 1 1\n" + std::string(kNearUnit) + " -0.25\n"});
    EXPECT_EQ(expectHandBuiltBitIdentical(pred), 0u);
    GridKernel kernel({&pred});
    GridScratch ws = kernel.scratch();
    kernel.evaluate({0}, ws); // both units near
    kernel.evaluate({1}, ws); // the x = 0 unit is far
    EXPECT_EQ(ws.expCalls(), 3u);
    kernel.evaluate({1}, ws); // a repeated point keeps its responses
    EXPECT_EQ(ws.expCalls(), 3u);
}

TEST(GridKernel, RejectsBanksOverDifferentSpaces)
{
    Training t = makeTraining(20);
    WaveletNeuralPredictor a = trainOn(t, PredictorOptions{}, 0.0);

    Training other = t;
    other.space = DesignSpace();
    for (std::size_t d = 0; d < t.space.dimensions(); ++d) {
        Parameter p = t.space.param(d);
        if (d == 0)
            p.trainLevels.back() += 1.0; // same shape, other values
        p.testLevels = {p.trainLevels.front()};
        other.space.addParameter(p);
    }
    for (auto &p : other.points)
        p[0] = p[0] == 16 ? 17 : p[0];
    WaveletNeuralPredictor b = trainOn(other, PredictorOptions{}, 0.0);
    EXPECT_THROW(GridKernel({&a, &b}), std::invalid_argument);
    EXPECT_THROW(GridKernel({}), std::invalid_argument);
}

} // anonymous namespace
} // namespace wavedyn
