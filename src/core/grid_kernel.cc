#include "core/grid_kernel.hh"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <map>
#include <stdexcept>

#include "wavelet/haar.hh"

namespace wavedyn
{

namespace
{

/** Bitwise identity of a unit: its centre then its radius. */
std::vector<std::uint64_t>
unitKey(const RbfUnit &u)
{
    std::vector<std::uint64_t> key(u.center.size() + u.radius.size());
    std::memcpy(key.data(), u.center.data(),
                u.center.size() * sizeof(double));
    std::memcpy(key.data() + u.center.size(), u.radius.data(),
                u.radius.size() * sizeof(double));
    return key;
}

bool
sameGrid(const DesignSpace &a, const DesignSpace &b)
{
    if (a.dimensions() != b.dimensions())
        return false;
    for (std::size_t d = 0; d < a.dimensions(); ++d)
        if (a.param(d).trainLevels != b.param(d).trainLevels)
            return false;
    return true;
}

/**
 * Beyond this z^2 sum a unit's response exp(-sum) is below 2^-92
 * (e^-64 < 2^-92, and a faithfully rounded exp cannot exceed the
 * representable bound above its true value).
 */
constexpr double kFarSum = 64.0;

/** Biased IEEE-754 exponent field of a double. */
int
exponentField(double v)
{
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    return static_cast<int>((bits >> 52) & 0x7ff);
}

/**
 * True when adding w * exp(-sum), sum > kFarSum, to @p acc provably
 * rounds back to acc, so skipping the term leaves the sum's bytes
 * unchanged. With biased exponent fields ew, ea: |w| < 2^(ew-1022)
 * (subnormal w included), so |fl(w * r)| <= 2^(ew-1114); a normal acc
 * has |acc| >= 2^(ea-1023), and any addend below 2^(ea-1077) — half
 * the spacing just below acc's binade — rounds to acc. ew <= ea + 32
 * keeps the term 32x under that. Infinite/NaN operands and
 * zero/subnormal accumulators always take the full path.
 */
bool
negligible(double w, double acc)
{
    int ea = exponentField(acc);
    int ew = exponentField(w);
    return ea != 0 && ea != 0x7ff && ew != 0x7ff && ew <= ea + 32;
}

} // anonymous namespace

GridKernel::GridKernel(
    const std::vector<const WaveletNeuralPredictor *> &bank)
{
    if (bank.empty())
        throw std::invalid_argument("GridKernel needs a predictor");
    space = bank.front()->designSpace();

    const std::size_t dims = space.dimensions();
    if (dims == 0)
        throw std::invalid_argument(
            "GridKernel needs a design space with dimensions");
    for (std::size_t d = 0; d < dims; ++d) {
        const Parameter &param = space.param(d);
        levelBase.push_back(normLevel.size());
        levelCount.push_back(param.levels());
        for (double v : param.trainLevels)
            normLevel.push_back(param.normalize(v));
    }

    // Deduplicate units across every coefficient model of the bank.
    std::map<std::vector<std::uint64_t>, std::uint32_t> ids;
    std::vector<const RbfUnit *> distinct;
    for (const WaveletNeuralPredictor *p : bank) {
        assert(p->trained());
        if (!sameGrid(p->designSpace(), space))
            throw std::invalid_argument(
                "GridKernel: predictors trained on different design "
                "spaces");
        Pred pred;
        pred.source = p;
        pred.length = p->traceLength();
        pred.firstModel = models.size();
        pred.selected = p->selectedCoefficients();
        pred.paperHaar = p->options().paperHaar;
        pred.clamp = p->options().clampToTrainingRange;
        // The scalar clamp bounds, computed the same way.
        auto [trainLo, trainHi] = p->trainingRange();
        double margin = 0.1 * (trainHi - trainLo);
        pred.lo = trainLo - margin;
        pred.hi = trainHi + margin;
        maxLength = std::max(maxLength, pred.length);

        for (const auto &model : p->coefficientModels()) {
            Model m;
            const auto *rbf = dynamic_cast<const RbfNetwork *>(model.get());
            if (rbf == nullptr) {
                m.fallback = model.get();
                models.push_back(m);
                continue;
            }
            m.bias = rbf->bias();
            m.firstTerm = termUnit.size();
            m.termCount = rbf->units().size();
            for (const RbfUnit &u : rbf->units()) {
                assert(u.center.size() == dims);
                auto inserted = ids.emplace(
                    unitKey(u), static_cast<std::uint32_t>(distinct.size()));
                if (inserted.second)
                    distinct.push_back(&u);
                termUnit.push_back(inserted.first->second);
                termWeight.push_back(u.weight);
            }
            models.push_back(m);
        }
        preds.push_back(std::move(pred));
    }
    unitsRaw = termUnit.size();
    unitCount = distinct.size();

    // z^2 of every unit at every level of every dimension: the exact
    // expression RbfNetwork::responseAt evaluates.
    zsq.assign(normLevel.size() * unitCount, 0.0);
    for (std::size_t u = 0; u < unitCount; ++u) {
        const RbfUnit &unit = *distinct[u];
        for (std::size_t d = 0; d < dims; ++d) {
            for (std::size_t l = 0; l < levelCount[d]; ++l) {
                double z = (normLevel[levelBase[d] + l] - unit.center[d]) /
                           unit.radius[d];
                zsq[(levelBase[d] + l) * unitCount + u] = z * z;
            }
        }
    }
}

GridScratch
GridKernel::scratch() const
{
    GridScratch ws;
    ws.partial.assign(levelCount.size() * unitCount, 0.0);
    ws.lastLevels.assign(levelCount.size(), SIZE_MAX);
    ws.response.assign(unitCount, 0.0);
    ws.coeffs.assign(maxLength, 0.0);
    ws.inverse.assign(maxLength, 0.0);
    std::size_t total = 0;
    for (const Pred &p : preds) {
        ws.traceOffset.push_back(total);
        total += p.length;
    }
    ws.traces.assign(total, 0.0);
    ws.norm.assign(space.dimensions(), 0.0);
    return ws;
}

void
GridKernel::evaluate(const std::vector<std::size_t> &levels,
                     GridScratch &ws) const
{
    assert(levels.size() == levelCount.size());
    // 1. Per-unit z^2 sums. Each unit's terms accumulate from 0.0 in
    //    dimension order, as responseAt does; the sums over a level
    //    prefix shared with the previous point are kept.
    const std::size_t dims = levelCount.size();
    std::size_t same = 0;
    while (same < dims && ws.lastLevels[same] == levels[same])
        ++same;
    for (std::size_t d = same; d < dims; ++d) {
        const double *row = zsq.data() + (levelBase[d] + levels[d]) *
                                             unitCount;
        double *sum = ws.partial.data() + d * unitCount;
        if (d == 0) {
            for (std::size_t u = 0; u < unitCount; ++u)
                sum[u] = 0.0 + row[u];
        } else {
            const double *prev = sum - unitCount;
            for (std::size_t u = 0; u < unitCount; ++u)
                sum[u] = prev[u] + row[u];
        }
        ws.lastLevels[d] = levels[d];
    }
    const double *dist = ws.partial.data() + (dims - 1) * unitCount;
    // Responses are computed on first use (negative = not yet): a unit
    // whose every term is negligible never pays for its exp.
    double *response = ws.response.data();
    std::fill(response, response + unitCount, -1.0);

    for (std::size_t d = 0; d < dims; ++d)
        ws.norm[d] = normLevel[levelBase[d] + levels[d]];

    // 2. Coefficients, inverse transform and clamp, per predictor.
    double *coeffs = ws.coeffs.data();
    for (std::size_t p = 0; p < preds.size(); ++p) {
        const Pred &pred = preds[p];
        for (std::size_t s = 0; s < pred.selected.size(); ++s) {
            const Model &m = models[pred.firstModel + s];
            double acc;
            if (m.fallback != nullptr) {
                acc = m.fallback->predict(ws.norm);
            } else {
                acc = m.bias;
                for (std::size_t t = m.firstTerm;
                     t < m.firstTerm + m.termCount; ++t) {
                    std::uint32_t u = termUnit[t];
                    if (dist[u] > kFarSum && negligible(termWeight[t], acc))
                        continue;
                    double r = response[u];
                    if (r < 0.0)
                        r = response[u] = std::exp(-dist[u]);
                    acc += termWeight[t] * r;
                }
            }
            coeffs[pred.selected[s]] = acc;
        }

        double *out = ws.traces.data() + ws.traceOffset[p];
        if (pred.paperHaar) {
            haarInverseInto(coeffs, pred.length, out, ws.inverse.data());
        } else {
            std::vector<double> trace = pred.source->fromCoefficients(
                std::vector<double>(coeffs, coeffs + pred.length));
            std::copy(trace.begin(), trace.end(), out);
        }
        // Only the selected slots were written; zero them back so the
        // buffer is clean for the next predictor.
        for (std::size_t slot : pred.selected)
            coeffs[slot] = 0.0;
        if (pred.clamp)
            for (std::size_t i = 0; i < pred.length; ++i)
                out[i] = std::min(std::max(out[i], pred.lo), pred.hi);
    }
}

} // namespace wavedyn
