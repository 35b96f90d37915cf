#include "core/grid_kernel.hh"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
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

/**
 * The guard of a model with terms @p weights, proving the chain that
 * sums far responses as 0.0 equal to the reference chain (every term
 * added, each far one w * exp(-sum) with sum > kFarSum).
 *
 * Let maxEw be the largest exponent field of the weights, all finite,
 * and G = 2^(max(maxEw - 32, 1) - 1023). Write a_0 = b_0 = bias, a_k
 * for the chain's partial sums and b_k for the reference's. Suppose
 * |a_k| >= G for every k and the last a_k is finite. Then every a_k
 * is finite (an infinity or NaN never turns finite again), and its
 * exponent field is at least max(maxEw - 32, 1): a_k is normal and
 * nonzero. By induction, a_{k-1} = b_{k-1}. A near term adds the same
 * product to the same sum, so a_k = b_k. For a far term, ea >= 1,
 * ea != 0x7ff, ew != 0x7ff and ew <= maxEw <= ea + 32, so negligible(w,
 * b_{k-1}) holds and b_k = b_{k-1}; and a_k = a_{k-1} + w * 0.0 =
 * a_{k-1}, since adding a zero to a nonzero double is exact. Hence the
 * chain's result is the reference's bytes. A non-finite weight gives
 * G = +inf: the guard then needs every sum infinite and the last one
 * finite, so it never holds.
 */
double
guardMinimum(const double *weights, std::size_t n)
{
    int maxEw = 0;
    for (std::size_t t = 0; t < n; ++t) {
        if (!std::isfinite(weights[t]))
            return std::numeric_limits<double>::infinity();
        maxEw = std::max(maxEw, exponentField(weights[t]));
    }
    return std::ldexp(1.0, std::max(maxEw - 32, 1) - 1023);
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
        pred.offset = preds.empty()
                          ? 0
                          : preds.back().offset + preds.back().length;
        pred.paperHaar = p->options().paperHaar;
        pred.clamp = p->options().clampToTrainingRange;
        // The scalar clamp bounds, computed the same way.
        auto [trainLo, trainHi] = p->trainingRange();
        double margin = 0.1 * (trainHi - trainLo);
        pred.lo = trainLo - margin;
        pred.hi = trainHi + margin;
        maxLength = std::max(maxLength, pred.length);

        const std::vector<std::size_t> &selected =
            p->selectedCoefficients();
        for (std::size_t k = 0; k < selected.size(); ++k) {
            const auto &model = p->coefficientModels()[k];
            Model m;
            m.slot = pred.offset + selected[k];
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

    // Group the RBF models by ascending term count, so a group's
    // lanes need little padding.
    std::vector<std::uint32_t> rbfOrder;
    for (std::size_t m = 0; m < models.size(); ++m)
        (models[m].fallback != nullptr ? fallbackModels : rbfOrder)
            .push_back(static_cast<std::uint32_t>(m));
    std::stable_sort(rbfOrder.begin(), rbfOrder.end(),
                     [&](std::uint32_t a, std::uint32_t b) {
                         return models[a].termCount < models[b].termCount;
                     });
    for (std::size_t first = 0; first < rbfOrder.size(); first += kLanes) {
        Group g;
        g.firstSlot = laneUnit.size();
        for (std::size_t j = 0; j < kLanes; ++j) {
            g.model[j] = first + j < rbfOrder.size() ? rbfOrder[first + j]
                                                     : kNoModel;
            g.bias[j] = 0.0;
            g.guardMin[j] = 0.0;
            if (g.model[j] == kNoModel)
                continue;
            const Model &m = models[g.model[j]];
            g.bias[j] = m.bias;
            g.guardMin[j] =
                guardMinimum(termWeight.data() + m.firstTerm, m.termCount);
            g.length = std::max(g.length, m.termCount);
        }
        for (std::size_t t = 0; t < g.length; ++t) {
            for (std::size_t j = 0; j < kLanes; ++j) {
                bool real = g.model[j] != kNoModel &&
                            t < models[g.model[j]].termCount;
                std::size_t term = real ? models[g.model[j]].firstTerm + t
                                        : 0;
                laneUnit.push_back(real ? termUnit[term]
                                        : static_cast<std::uint32_t>(
                                              unitCount));
                laneWeight.push_back(real ? termWeight[term] : -0.0);
            }
        }
        groups.push_back(g);
    }

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
    ws.partial.assign((levelCount.size() + 1) * unitCount, 0.0);
    ws.lastLevels.assign(levelCount.size(), SIZE_MAX);
    ws.response.assign(unitCount + 1, 0.0);
    ws.nearUnits.assign(unitCount, 0);
    ws.inverse.assign(maxLength, 0.0);
    for (const Pred &p : preds)
        ws.traceOffset.push_back(p.offset);
    const std::size_t total = preds.back().offset + preds.back().length;
    ws.coeffs.assign(total, 0.0);
    ws.traces.assign(total, 0.0);
    ws.norm.assign(space.dimensions(), 0.0);
    return ws;
}

double
GridKernel::exactSum(const Model &m, const double *dist,
                     GridScratch &ws) const
{
    double acc = m.bias;
    for (std::size_t t = m.firstTerm; t < m.firstTerm + m.termCount; ++t) {
        std::uint32_t u = termUnit[t];
        double r = ws.response[u];
        if (dist[u] > kFarSum) {
            if (negligible(termWeight[t], acc))
                continue;
            r = std::exp(-dist[u]);
            ++ws.exps;
        }
        acc += termWeight[t] * r;
    }
    return acc;
}

void
GridKernel::sumGroups(const double *dist, GridScratch &ws) const
{
    // kLanes independent dependency chains per group: one chain is
    // add-latency bound, and the lanes overlap.
    const double *response = ws.response.data();
    for (const Group &g : groups) {
        double acc[kLanes];
        double low[kLanes];
        for (std::size_t j = 0; j < kLanes; ++j) {
            acc[j] = g.bias[j];
            low[j] = std::fabs(acc[j]);
        }
        const std::uint32_t *unit = laneUnit.data() + g.firstSlot;
        const double *weight = laneWeight.data() + g.firstSlot;
        for (std::size_t t = 0; t < g.length;
             ++t, unit += kLanes, weight += kLanes) {
            for (std::size_t j = 0; j < kLanes; ++j) {
                acc[j] += weight[j] * response[unit[j]];
                low[j] = std::min(low[j], std::fabs(acc[j]));
            }
        }
        for (std::size_t j = 0; j < kLanes && g.model[j] != kNoModel; ++j) {
            // A NaN partial sum escapes min() but stays NaN to the end.
            if (!(low[j] >= g.guardMin[j] && std::isfinite(acc[j]))) {
                acc[j] = exactSum(models[g.model[j]], dist, ws);
                ++ws.fallbacks;
            }
            ws.coeffs[models[g.model[j]].slot] = acc[j];
        }
    }
}

void
GridKernel::evaluate(const std::vector<std::size_t> &levels,
                     GridScratch &ws) const
{
    assert(levels.size() == levelCount.size());
    // 1. Per-unit z^2 sums. Each unit's terms accumulate from 0.0 in
    //    dimension order, as responseAt does; the sums over a level
    //    prefix shared with the previous point are kept. Row d + 1 of
    //    partial holds the sums over dimensions 0..d; row 0 is zeros.
    const std::size_t dims = levelCount.size();
    std::size_t same = 0;
    while (same < dims && ws.lastLevels[same] == levels[same])
        ++same;
    auto zsqRow = [&](std::size_t d) {
        return zsq.data() + (levelBase[d] + levels[d]) * unitCount;
    };
    for (std::size_t d = same; d + 1 < dims; ++d) {
        const double *row = zsqRow(d);
        double *sum = ws.partial.data() + (d + 1) * unitCount;
        const double *prev = sum - unitCount;
        for (std::size_t u = 0; u < unitCount; ++u)
            sum[u] = prev[u] + row[u];
    }
    for (std::size_t d = same; d < dims; ++d)
        ws.lastLevels[d] = levels[d];
    double *dist = ws.partial.data() + dims * unitCount;

    // 2. Responses: exp for the near units, 0.0 for the far ones.
    //    Every unit is used by some model and no near term is ever
    //    left out, so each of these exps is one the sums need. The
    //    near list is built with the last row of sums and without a
    //    branch: about half the units are far, in an order no branch
    //    predictor learns. A repeated point keeps its responses.
    if (same < dims) {
        double *response = ws.response.data();
        std::uint32_t *nearUnits = ws.nearUnits.data();
        std::size_t nearCount = 0;
        const double *row = zsqRow(dims - 1);
        const double *prev = dist - unitCount;
        for (std::size_t u = 0; u < unitCount; ++u) {
            dist[u] = prev[u] + row[u];
            response[u] = 0.0;
            nearUnits[nearCount] = static_cast<std::uint32_t>(u);
            nearCount += !(dist[u] > kFarSum);
        }
        for (std::size_t k = 0; k < nearCount; ++k)
            response[nearUnits[k]] = std::exp(-dist[nearUnits[k]]);
        ws.exps += nearCount;
    }

    // 3. Every coefficient model's value: the RBF chains in groups
    //    under the guard, the rest through predict().
    sumGroups(dist, ws);
    if (!fallbackModels.empty()) {
        for (std::size_t d = 0; d < dims; ++d)
            ws.norm[d] = normLevel[levelBase[d] + levels[d]];
        for (std::uint32_t m : fallbackModels)
            ws.coeffs[models[m].slot] = models[m].fallback->predict(ws.norm);
    }

    // 4. Inverse transform and clamp, per predictor.
    for (std::size_t p = 0; p < preds.size(); ++p) {
        const Pred &pred = preds[p];
        const double *coeffs = ws.coeffs.data() + pred.offset;
        double *out = ws.traces.data() + pred.offset;
        if (pred.paperHaar) {
            haarInverseInto(coeffs, pred.length, out, ws.inverse.data());
        } else {
            std::vector<double> trace = pred.source->fromCoefficients(
                std::vector<double>(coeffs, coeffs + pred.length));
            std::copy(trace.begin(), trace.end(), out);
        }
        if (pred.clamp) {
            const double lo = pred.lo;
            const double hi = pred.hi;
            for (std::size_t i = 0; i < pred.length; ++i)
                out[i] = std::min(std::max(out[i], lo), hi);
        }
    }
}

} // namespace wavedyn
