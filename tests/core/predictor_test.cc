/**
 * @file
 * Tests for the wavelet neural predictor on synthetic trace families
 * with known structure (no simulator in the loop — see the integration
 * suite for end-to-end coverage).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>

#include "core/predictor.hh"
#include "core/sampling.hh"
#include "util/rng.hh"
#include "util/stats.hh"

namespace wavedyn
{
namespace
{

/**
 * Synthetic "workload dynamics": the trace shape is a *nonlinear*
 * function of the normalised design vector, mimicking real coupling —
 * exponential saturation in cache capacity, multiplicative width x
 * queue interaction, and a two-parameter threshold step. Linear models
 * cannot represent this family, which is the paper's motivation for
 * RBF networks.
 */
std::vector<double>
syntheticTrace(const std::vector<double> &norm, std::size_t n)
{
    std::vector<double> t(n);
    double mem_pressure = std::exp(-2.5 * norm[L2Size]) *
                          (1.5 - norm[Dl1Size]);
    double base = 1.0 + 2.2 * mem_pressure +
                  0.5 * norm[Dl1Lat] * (1.0 - norm[Dl1Size]);
    double amp = 0.2 + 0.9 * norm[FetchWidth] *
                 (1.0 - 0.5 * norm[L2Lat]);
    double step =
        (norm[RobSize] > 0.4 && norm[LsqSize] > 0.3) ? 0.8 : 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        double phase = static_cast<double>(i) / static_cast<double>(n);
        t[i] = base + amp * std::sin(2.0 * M_PI * 3.0 * phase) +
               (phase > 0.5 ? step : 0.0);
    }
    return t;
}

struct SyntheticData
{
    DesignSpace space;
    std::vector<DesignPoint> train, test;
    std::vector<std::vector<double>> trainTraces, testTraces;
};

SyntheticData
makeData(std::size_t n_train, std::size_t n_test, std::size_t len,
         std::uint64_t seed = 7)
{
    SyntheticData d;
    d.space = DesignSpace::paper();
    Rng rng(seed);
    d.train = bestLatinHypercube(d.space, n_train, 4, rng);
    d.test = randomTestSample(d.space, n_test, rng);
    for (const auto &p : d.train)
        d.trainTraces.push_back(syntheticTrace(d.space.normalize(p), len));
    for (const auto &p : d.test)
        d.testTraces.push_back(syntheticTrace(d.space.normalize(p), len));
    return d;
}

double
medianTestMse(const WaveletNeuralPredictor &pred, const SyntheticData &d)
{
    std::vector<double> mses;
    for (std::size_t i = 0; i < d.test.size(); ++i)
        mses.push_back(
            msePercent(d.testTraces[i], pred.predictTrace(d.test[i])));
    return boxplot(mses).median;
}

TEST(Predictor, UntrainedReportsUntrained)
{
    WaveletNeuralPredictor p;
    EXPECT_FALSE(p.trained());
    EXPECT_EQ(p.traceLength(), 0u);
}

TEST(Predictor, TrainSetsMetadata)
{
    auto d = makeData(40, 8, 64);
    WaveletNeuralPredictor p;
    p.train(d.space, d.train, d.trainTraces);
    EXPECT_TRUE(p.trained());
    EXPECT_EQ(p.traceLength(), 64u);
    EXPECT_EQ(p.selectedCoefficients().size(), 16u);
}

TEST(Predictor, PredictsTraceOfCorrectLength)
{
    auto d = makeData(40, 8, 128);
    WaveletNeuralPredictor p;
    p.train(d.space, d.train, d.trainTraces);
    auto t = p.predictTrace(d.test[0]);
    EXPECT_EQ(t.size(), 128u);
}

TEST(Predictor, BatchedPredictionBitIdenticalToScalar)
{
    // The exploration sweep scores every design point through
    // predictTraces; its golden byte-stability rests on the batched
    // path computing exactly what per-point predictTrace computes.
    auto d = makeData(40, 8, 64);
    WaveletNeuralPredictor p;
    p.train(d.space, d.train, d.trainTraces);

    // Mix of test and train points, enough to span several internal
    // blocks of the batched path.
    std::vector<DesignPoint> pts;
    for (int rep = 0; rep < 40; ++rep)
        for (const auto &q : d.test)
            pts.push_back(q);
    auto batch = p.predictTraces(pts);
    ASSERT_EQ(batch.size(), pts.size());
    for (std::size_t i = 0; i < pts.size(); ++i)
        EXPECT_EQ(batch[i], p.predictTrace(pts[i])) << "point " << i;

    EXPECT_TRUE(p.predictTraces({}).empty());
}

TEST(Predictor, BatchedPredictionRejectsOffGridPoints)
{
    auto d = makeData(40, 8, 64);
    WaveletNeuralPredictor p;
    p.train(d.space, d.train, d.trainTraces);

    // The scalar path interpolates between levels; the batched path
    // runs on the training grid and must say so instead of indexing
    // a table with a wrong level.
    DesignPoint off = d.test[0];
    off[RobSize] = 100.0;
    EXPECT_EQ(p.predictTrace(off).size(), 64u);
    try {
        p.predictTraces({d.test[1], off});
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument &e) {
        EXPECT_EQ(std::string(e.what()), d.space.validationError(off));
    }

    DesignPoint shortPoint(d.space.dimensions() - 1, 2.0);
    EXPECT_THROW(p.predictTraces({shortPoint}), std::invalid_argument);
}

TEST(Predictor, RetrainWarmKeepsSelectionFrozen)
{
    auto d = makeData(30, 8, 64);
    WaveletNeuralPredictor p;
    p.train(d.space, d.train, d.trainTraces);
    auto selection = p.selectedCoefficients();

    // Grow the training set (fold in the test points, as the
    // explorer's refinement loop does) and warm-start retrain: the
    // coefficient selection must be byte-identical, the models refit.
    auto points = d.train;
    auto traces = d.trainTraces;
    for (std::size_t i = 0; i < d.test.size(); ++i) {
        points.push_back(d.test[i]);
        traces.push_back(d.testTraces[i]);
    }
    p.retrain(d.space, points, traces);
    EXPECT_EQ(p.selectedCoefficients(), selection);
    EXPECT_EQ(p.traceLength(), 64u);

    // Sanity: the warm-retrained model still predicts the family it
    // has now fully seen (not a degenerate refit).
    double mse = 0.0;
    for (std::size_t i = 0; i < d.test.size(); ++i)
        mse += msePercent(d.testTraces[i], p.predictTrace(d.test[i]));
    EXPECT_LT(mse / static_cast<double>(d.test.size()), 20.0);
}

TEST(Predictor, RetrainUntrainedFallsBackToFullTrain)
{
    auto d = makeData(30, 4, 64);
    WaveletNeuralPredictor cold;
    cold.retrain(d.space, d.train, d.trainTraces);
    EXPECT_TRUE(cold.trained());

    WaveletNeuralPredictor fresh;
    fresh.train(d.space, d.train, d.trainTraces);
    // Identical outcome: retrain-from-cold is exactly train().
    for (const auto &q : d.test)
        EXPECT_EQ(cold.predictTrace(q), fresh.predictTrace(q));
}

TEST(Predictor, RetrainNewLengthReselects)
{
    auto d64 = makeData(30, 4, 64);
    WaveletNeuralPredictor p;
    p.train(d64.space, d64.train, d64.trainTraces);

    auto d128 = makeData(30, 4, 128, 11);
    p.retrain(d128.space, d128.train, d128.trainTraces);
    EXPECT_EQ(p.traceLength(), 128u);
    EXPECT_EQ(p.predictTrace(d128.test[0]).size(), 128u);
}

TEST(Predictor, AccurateOnSmoothFamily)
{
    auto d = makeData(80, 16, 128);
    WaveletNeuralPredictor p;
    p.train(d.space, d.train, d.trainTraces);
    EXPECT_LT(medianTestMse(p, d), 6.0); // MSE(%) median in paper band
}

TEST(Predictor, BeatsGlobalMeanBaseline)
{
    auto d = makeData(80, 16, 128);
    WaveletNeuralPredictor rbf;
    rbf.train(d.space, d.train, d.trainTraces);

    PredictorOptions mean_opts;
    mean_opts.model = CoefficientModel::GlobalMean;
    WaveletNeuralPredictor mean(mean_opts);
    mean.train(d.space, d.train, d.trainTraces);

    EXPECT_LT(medianTestMse(rbf, d), 0.7 * medianTestMse(mean, d));
}

TEST(Predictor, BeatsLinearOnNonlinearFamily)
{
    auto d = makeData(120, 20, 128, 11);
    WaveletNeuralPredictor rbf;
    rbf.train(d.space, d.train, d.trainTraces);

    PredictorOptions lin_opts;
    lin_opts.model = CoefficientModel::Linear;
    WaveletNeuralPredictor lin(lin_opts);
    lin.train(d.space, d.train, d.trainTraces);

    // Exponential + interaction + step structure: RBF must win.
    EXPECT_LT(medianTestMse(rbf, d), medianTestMse(lin, d));
}

TEST(Predictor, MoreCoefficientsNoWorse)
{
    auto d = makeData(80, 16, 128, 13);
    double prev = 1e9;
    for (std::size_t k : {4u, 16u, 64u}) {
        PredictorOptions opts;
        opts.coefficients = k;
        WaveletNeuralPredictor p(opts);
        p.train(d.space, d.train, d.trainTraces);
        double mse = medianTestMse(p, d);
        EXPECT_LT(mse, prev * 1.5) << k; // no catastrophic regression
        prev = std::min(prev, mse);
    }
}

TEST(Predictor, MagnitudeSelectionBeatsOrderOnLocalizedBurst)
{
    // A family whose energy sits in a short, large burst: the burst is
    // carried by fine-scale detail coefficients which order-based
    // (coarse-first) selection misses entirely.
    DesignSpace space = DesignSpace::paper();
    Rng rng(17);
    auto train = bestLatinHypercube(space, 60, 4, rng);
    auto test = randomTestSample(space, 12, rng);
    auto burst_trace = [&](const DesignPoint &p) {
        auto n = space.normalize(p);
        std::vector<double> t(128, 1.0 + 0.2 * n[L2Size]);
        double height = 2.0 + 4.0 * n[FetchWidth];
        for (std::size_t i = 100; i < 104; ++i)
            t[i] += height;
        return t;
    };
    std::vector<std::vector<double>> train_traces, test_traces;
    for (const auto &p : train)
        train_traces.push_back(burst_trace(p));
    for (const auto &p : test)
        test_traces.push_back(burst_trace(p));

    PredictorOptions mag, ord;
    mag.selection = SelectionScheme::Magnitude;
    ord.selection = SelectionScheme::Order;
    mag.coefficients = ord.coefficients = 8;
    WaveletNeuralPredictor pm(mag), po(ord);
    pm.train(space, train, train_traces);
    po.train(space, train, train_traces);

    auto median_mse = [&](const WaveletNeuralPredictor &pred) {
        std::vector<double> mses;
        for (std::size_t i = 0; i < test.size(); ++i)
            mses.push_back(msePercent(test_traces[i],
                                      pred.predictTrace(test[i])));
        return boxplot(mses).median;
    };
    EXPECT_LT(median_mse(pm), median_mse(po));
}

TEST(Predictor, SelectedCoefficientsRespectK)
{
    auto d = makeData(30, 4, 64);
    PredictorOptions opts;
    opts.coefficients = 5;
    WaveletNeuralPredictor p(opts);
    p.train(d.space, d.train, d.trainTraces);
    EXPECT_EQ(p.selectedCoefficients().size(), 5u);
}

TEST(Predictor, KLargerThanTraceClamped)
{
    auto d = makeData(30, 4, 32);
    PredictorOptions opts;
    opts.coefficients = 999;
    WaveletNeuralPredictor p(opts);
    p.train(d.space, d.train, d.trainTraces);
    EXPECT_EQ(p.selectedCoefficients().size(), 32u);
}

TEST(Predictor, PredictCoefficientsSparse)
{
    auto d = makeData(30, 4, 64);
    PredictorOptions opts;
    opts.coefficients = 4;
    WaveletNeuralPredictor p(opts);
    p.train(d.space, d.train, d.trainTraces);
    auto coeffs = p.predictCoefficients(d.test[0]);
    std::size_t nonzero = 0;
    for (double c : coeffs)
        if (c != 0.0)
            ++nonzero;
    EXPECT_LE(nonzero, 4u);
}

TEST(Predictor, OrthonormalWaveletAlsoWorks)
{
    auto d = makeData(60, 12, 64, 19);
    PredictorOptions opts;
    opts.paperHaar = false;
    opts.mother = MotherWavelet::Daubechies4;
    WaveletNeuralPredictor p(opts);
    p.train(d.space, d.train, d.trainTraces);
    EXPECT_LT(medianTestMse(p, d), 5.0);
}

TEST(Predictor, ImportanceIdentifiesDrivingParameters)
{
    auto d = makeData(100, 10, 64, 23);
    WaveletNeuralPredictor p;
    p.train(d.space, d.train, d.trainTraces);
    auto by_freq = p.importanceByFrequency();
    ASSERT_EQ(by_freq.size(), d.space.dimensions());
    // The family is driven by L2 size, DL1 size, fetch width, ROB size;
    // IQ size plays no role. L2 must rank above IQ.
    EXPECT_GT(by_freq[L2Size], by_freq[IqSize]);
}

TEST(Predictor, ImportanceEmptyForNonRbfModels)
{
    auto d = makeData(30, 4, 32);
    PredictorOptions opts;
    opts.model = CoefficientModel::Linear;
    WaveletNeuralPredictor p(opts);
    p.train(d.space, d.train, d.trainTraces);
    auto imp = p.importanceByOrder();
    double total = 0.0;
    for (double v : imp)
        total += v;
    EXPECT_DOUBLE_EQ(total, 0.0);
}

TEST(Predictor, ClampKeepsPredictionsInTrainingRange)
{
    auto d = makeData(60, 16, 64, 31);
    WaveletNeuralPredictor p; // clamp on by default
    p.train(d.space, d.train, d.trainTraces);

    double lo = d.trainTraces[0][0], hi = lo;
    for (const auto &t : d.trainTraces)
        for (double v : t) {
            lo = std::min(lo, v);
            hi = std::max(hi, v);
        }
    double margin = 0.1 * (hi - lo);
    for (const auto &pt : d.test) {
        for (double v : p.predictTrace(pt)) {
            EXPECT_GE(v, lo - margin - 1e-12);
            EXPECT_LE(v, hi + margin + 1e-12);
        }
    }
}

TEST(Predictor, ClampCanBeDisabled)
{
    auto d = makeData(40, 8, 64, 33);
    PredictorOptions opts;
    opts.clampToTrainingRange = false;
    WaveletNeuralPredictor p(opts);
    p.train(d.space, d.train, d.trainTraces);
    // Merely verify it still predicts sensibly without the clamp.
    auto t = p.predictTrace(d.test[0]);
    EXPECT_EQ(t.size(), 64u);
    for (double v : t)
        EXPECT_TRUE(std::isfinite(v));
}

TEST(Predictor, DeterministicTraining)
{
    auto d = makeData(40, 6, 64);
    WaveletNeuralPredictor a, b;
    a.train(d.space, d.train, d.trainTraces);
    b.train(d.space, d.train, d.trainTraces);
    for (const auto &pt : d.test) {
        auto ta = a.predictTrace(pt);
        auto tb = b.predictTrace(pt);
        for (std::size_t i = 0; i < ta.size(); ++i)
            ASSERT_DOUBLE_EQ(ta[i], tb[i]);
    }
}

class PredictorCoeffSweep : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(PredictorCoeffSweep, ReconstructionErrorBounded)
{
    auto d = makeData(60, 10, 128, 29);
    PredictorOptions opts;
    opts.coefficients = GetParam();
    WaveletNeuralPredictor p(opts);
    p.train(d.space, d.train, d.trainTraces);
    EXPECT_LT(medianTestMse(p, d), 12.0) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(PaperSweep, PredictorCoeffSweep,
                         ::testing::Values(16, 32, 64, 96, 128));

} // anonymous namespace
} // namespace wavedyn
