#include "core/predictor.hh"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "core/grid_kernel.hh"
#include "wavelet/haar.hh"

namespace wavedyn
{

WaveletNeuralPredictor::WaveletNeuralPredictor(PredictorOptions opts)
    : opts(opts)
{
}

std::vector<double>
WaveletNeuralPredictor::toCoefficients(
    const std::vector<double> &trace) const
{
    if (opts.paperHaar)
        return haarForward(trace);
    return WaveletTransform(opts.mother).forward(trace);
}

std::vector<double>
WaveletNeuralPredictor::fromCoefficients(std::vector<double> coeffs) const
{
    if (opts.paperHaar)
        return haarInverse(coeffs);
    return WaveletTransform(opts.mother).inverse(coeffs);
}

std::unique_ptr<RegressionModel>
WaveletNeuralPredictor::makeModel() const
{
    switch (opts.model) {
      case CoefficientModel::Rbf:
        return std::make_unique<RbfNetwork>(opts.rbf);
      case CoefficientModel::Linear:
        return std::make_unique<LinearModel>();
      case CoefficientModel::GlobalMean:
        return std::make_unique<GlobalMeanModel>();
    }
    return std::make_unique<RbfNetwork>(opts.rbf);
}

void
WaveletNeuralPredictor::train(const DesignSpace &space,
                              const std::vector<DesignPoint> &points,
                              const std::vector<std::vector<double>>
                                  &traces)
{
    trainImpl(space, points, traces, false);
}

void
WaveletNeuralPredictor::retrain(const DesignSpace &space,
                                const std::vector<DesignPoint> &points,
                                const std::vector<std::vector<double>>
                                    &traces)
{
    bool warm = trained() && !traces.empty() &&
                traces.front().size() == length;
    trainImpl(space, points, traces, warm);
}

void
WaveletNeuralPredictor::trainImpl(const DesignSpace &space,
                                  const std::vector<DesignPoint> &points,
                                  const std::vector<std::vector<double>>
                                      &traces,
                                  bool keepSelection)
{
    assert(points.size() == traces.size());
    assert(!points.empty());
    assert(isPowerOfTwo(traces.front().size()));
    assert(!keepSelection || traces.front().size() == length);

    this->space = space;
    length = traces.front().size();

    // Step 1: decompose every training trace.
    std::vector<std::vector<double>> coeff_sets;
    coeff_sets.reserve(traces.size());
    trainLo = traces.front().front();
    trainHi = trainLo;
    for (const auto &t : traces) {
        assert(t.size() == length);
        for (double v : t) {
            trainLo = std::min(trainLo, v);
            trainHi = std::max(trainHi, v);
        }
        coeff_sets.push_back(toCoefficients(t));
    }

    // Step 2: choose the modelled coefficient slots (or keep the
    // previous selection frozen on a warm start).
    if (!keepSelection) {
        std::size_t k = std::min(opts.coefficients, length);
        if (opts.selection == SelectionScheme::Magnitude)
            selected = selectByMeanMagnitude(coeff_sets, k);
        else
            selected = selectByOrder(length, k);
    }

    selectionWeight.assign(selected.size(), 0.0);
    for (std::size_t s = 0; s < selected.size(); ++s) {
        double acc = 0.0;
        for (const auto &c : coeff_sets)
            acc += std::fabs(c[selected[s]]);
        selectionWeight[s] = acc / static_cast<double>(coeff_sets.size());
    }

    // Step 3: one regression model per selected coefficient, all fed
    // the normalised design vector.
    Matrix x(points.size(), space.dimensions());
    for (std::size_t r = 0; r < points.size(); ++r) {
        auto norm = space.normalize(points[r]);
        for (std::size_t c = 0; c < norm.size(); ++c)
            x.at(r, c) = norm[c];
    }

    models.clear();
    models.reserve(selected.size());
    std::vector<double> y(points.size());
    for (std::size_t s = 0; s < selected.size(); ++s) {
        for (std::size_t r = 0; r < points.size(); ++r)
            y[r] = coeff_sets[r][selected[s]];
        auto model = makeModel();
        model->fit(x, y);
        models.push_back(std::move(model));
    }
}

std::vector<double>
WaveletNeuralPredictor::predictCoefficients(const DesignPoint &point) const
{
    assert(trained());
    std::vector<double> coeffs(length, 0.0);
    auto norm = space.normalize(point);
    for (std::size_t s = 0; s < selected.size(); ++s)
        coeffs[selected[s]] = models[s]->predict(norm);
    return coeffs;
}

std::vector<double>
WaveletNeuralPredictor::predictTrace(const DesignPoint &point) const
{
    auto trace = fromCoefficients(predictCoefficients(point));
    if (opts.clampToTrainingRange) {
        double margin = 0.1 * (trainHi - trainLo);
        double lo = trainLo - margin;
        double hi = trainHi + margin;
        for (double &v : trace)
            v = std::min(std::max(v, lo), hi);
    }
    return trace;
}

std::vector<std::vector<double>>
WaveletNeuralPredictor::predictTraces(
    const std::vector<DesignPoint> &points) const
{
    assert(trained());
    if (points.empty())
        return {};
    GridKernel kernel({this});
    GridScratch ws = kernel.scratch();
    std::vector<std::vector<double>> out;
    out.reserve(points.size());
    for (const DesignPoint &p : points) {
        kernel.evaluate(space.trainIndices(p), ws);
        out.emplace_back(ws.trace(0), ws.trace(0) + length);
    }
    return out;
}

namespace
{

std::vector<double>
weightedSpokes(const std::vector<std::unique_ptr<RegressionModel>> &models,
               const std::vector<double> &weights,
               bool by_order, std::size_t dims)
{
    std::vector<double> acc(dims, 0.0);
    double total = 0.0;
    for (std::size_t s = 0; s < models.size(); ++s) {
        const auto *rbf = dynamic_cast<const RbfNetwork *>(models[s].get());
        if (!rbf)
            continue;
        auto spokes = by_order ? rbf->seedTree().spokesByOrder()
                               : rbf->seedTree().spokesByFrequency();
        double w = weights[s];
        for (std::size_t d = 0; d < dims && d < spokes.size(); ++d)
            acc[d] += w * spokes[d];
        total += w;
    }
    if (total > 0.0)
        for (double &v : acc)
            v /= total;
    return acc;
}

} // anonymous namespace

std::vector<double>
WaveletNeuralPredictor::importanceByOrder() const
{
    if (!trained())
        return {};
    return weightedSpokes(models, selectionWeight, true,
                          space.dimensions());
}

std::vector<double>
WaveletNeuralPredictor::importanceByFrequency() const
{
    if (!trained())
        return {};
    return weightedSpokes(models, selectionWeight, false,
                          space.dimensions());
}

} // namespace wavedyn
