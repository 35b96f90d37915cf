#include "core/metrics.hh"

#include <cassert>

namespace wavedyn
{

EvalResult
evaluatePredictor(const WaveletNeuralPredictor &pred,
                  const std::vector<DesignPoint> &test_points,
                  const std::vector<std::vector<double>> &actual_traces)
{
    assert(test_points.size() == actual_traces.size());
    std::vector<std::vector<double>> predicted;
    predicted.reserve(test_points.size());
    for (const DesignPoint &p : test_points)
        predicted.push_back(pred.predictTrace(p));
    return evaluateTraces(actual_traces, predicted);
}

EvalResult
evaluateTraces(const std::vector<std::vector<double>> &actual,
               const std::vector<std::vector<double>> &predicted)
{
    assert(actual.size() == predicted.size());
    EvalResult res;
    res.msePerTest.reserve(actual.size());
    for (std::size_t i = 0; i < actual.size(); ++i)
        res.msePerTest.push_back(msePercent(actual[i], predicted[i]));
    res.summary = boxplot(res.msePerTest);
    return res;
}

std::vector<double>
directionalAsymmetryQ(const std::vector<double> &actual,
                      const std::vector<double> &predicted)
{
    auto thresholds = quarterThresholds(actual);
    std::vector<double> out;
    out.reserve(thresholds.size());
    for (double q : thresholds) {
        double ds = directionalSymmetry(actual, predicted, q);
        out.push_back(100.0 * (1.0 - ds));
    }
    return out;
}

std::vector<double>
meanDirectionalAsymmetryQ(const std::vector<std::vector<double>> &actual,
                          const std::vector<std::vector<double>>
                              &predicted)
{
    assert(actual.size() == predicted.size());
    std::vector<double> acc(3, 0.0);
    if (actual.empty())
        return acc;
    for (std::size_t i = 0; i < actual.size(); ++i) {
        auto a = directionalAsymmetryQ(actual[i], predicted[i]);
        for (std::size_t q = 0; q < 3; ++q)
            acc[q] += a[q];
    }
    for (double &v : acc)
        v /= static_cast<double>(actual.size());
    return acc;
}

double
fractionAbove(const std::vector<double> &trace, double threshold)
{
    if (trace.empty())
        return 0.0;
    std::size_t above = 0;
    for (double v : trace)
        if (v > threshold)
            ++above;
    return static_cast<double>(above) / static_cast<double>(trace.size());
}

bool
exceedanceAgreement(const std::vector<double> &actual,
                    const std::vector<double> &predicted,
                    double threshold)
{
    bool a = fractionAbove(actual, threshold) > 0.0;
    bool p = fractionAbove(predicted, threshold) > 0.0;
    return a == p;
}

} // namespace wavedyn
