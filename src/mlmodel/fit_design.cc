#include "mlmodel/fit_design.hh"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace wavedyn
{

namespace
{

constexpr std::size_t kNoRecord = std::numeric_limits<std::size_t>::max();

/** 64-bit FNV-1a over the item indices. */
std::uint64_t
hashItems(const std::vector<std::uint32_t> &items)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (std::uint32_t i : items) {
        h ^= i;
        h *= 0x100000001b3ull;
    }
    return h;
}

} // anonymous namespace

FitDesign::FitDesign(const Matrix &x, double radiusScale,
                     double radiusFloor)
    : design(x), unitScale(radiusScale), unitFloor(radiusFloor),
      arena(x.rows() * x.cols() * 64), index(&arena)
{
    const std::size_t n = x.rows();
    const std::size_t d = x.cols();
    if (n > std::numeric_limits<std::uint32_t>::max())
        throw std::invalid_argument("FitDesign: more rows than a 32-bit "
                                    "index holds");
    rank.resize(d * n);
    levelBegin.assign(1, 0);
    records.reserve(64);

    // Ranks by value: equal values (including -0.0 and +0.0) share one,
    // so rank comparisons decide exactly as value comparisons.
    std::vector<std::uint32_t> order(n);
    for (std::size_t f = 0; f < d; ++f) {
        for (std::size_t r = 0; r < n; ++r) {
            if (std::isnan(x.at(r, f)))
                throw std::invalid_argument("FitDesign: x holds a NaN");
            order[r] = static_cast<std::uint32_t>(r);
        }
        std::sort(order.begin(), order.end(),
                  [&](std::uint32_t a, std::uint32_t b) {
                      return x.at(a, f) < x.at(b, f);
                  });
        std::uint32_t *ranks = rank.data() + f * n;
        std::uint32_t rk = 0;
        for (std::size_t k = 0; k < n; ++k) {
            const double v = x.at(order[k], f);
            if (k == 0 || x.at(order[k - 1], f) < v) {
                rk = static_cast<std::uint32_t>(levelValue.size() -
                                                levelBegin[f]);
                levelValue.push_back(v);
            }
            ranks[order[k]] = rk;
        }
        levelBegin.push_back(static_cast<std::uint32_t>(levelValue.size()));
    }
}

std::size_t
FitDesign::node(const std::vector<std::uint32_t> &items)
{
    const std::uint64_t h = hashItems(items);
    auto [slot, inserted] = index.try_emplace(h, records.size());
    if (!inserted) {
        for (std::size_t id = slot->second; id != kNoRecord;
             id = collisions[id])
            if (std::equal(records[id].items.begin(),
                           records[id].items.end(), items.begin(),
                           items.end())) {
                ++hits;
                return id;
            }
    }
    const std::size_t id = records.size();
    collisions.push_back(inserted ? kNoRecord : slot->second);
    slot->second = id;

    records.emplace_back(&arena);
    Node &n = records.back();
    n.items.assign(items.begin(), items.end());

    // Hyper-rectangle of the node's inputs: the centre and half-width
    // seed one Gaussian unit.
    const std::size_t d = dims();
    n.center.assign(d, 0.0);
    std::vector<double> &lo = loScratch, &hi = hiScratch;
    lo.resize(d);
    hi.resize(d);
    for (std::size_t f = 0; f < d; ++f)
        lo[f] = hi[f] = design.at(items.front(), f);
    for (std::uint32_t i : items) {
        for (std::size_t f = 0; f < d; ++f) {
            double v = design.at(i, f);
            n.center[f] += v;
            lo[f] = std::min(lo[f], v);
            hi[f] = std::max(hi[f], v);
        }
    }
    n.halfWidth.assign(d, 0.0);
    for (std::size_t f = 0; f < d; ++f) {
        n.center[f] /= static_cast<double>(items.size());
        n.halfWidth[f] = 0.5 * (hi[f] - lo[f]);
    }
    return id;
}

const FitDesign::Node &
FitDesign::chains(std::size_t id)
{
    Node &n = records[id];
    if (!n.hasChains) {
        fillChains(n);
        n.hasChains = true;
    }
    return n;
}

double
FitDesign::threshold(const Node &n, std::size_t feature,
                     std::size_t cut) const
{
    const std::uint32_t *chain = n.chain.data() + feature * n.items.size();
    const std::size_t pos = n.cuts[cut];
    double a = design.at(chain[pos], feature);
    double b = design.at(chain[pos + 1], feature);
    return 0.5 * (a + b);
}

std::pair<std::size_t, std::size_t>
FitDesign::split(std::size_t id, std::size_t feature, std::size_t cut)
{
    for (const auto &s : records[id].splits)
        if (s[0] == cut)
            return {s[1], s[2]};

    // node() below may move the records: partition first.
    const Node &n = records[id];
    const double t = threshold(n, feature, cut);
    leftScratch.clear();
    rightScratch.clear();
    for (std::uint32_t i : n.items) {
        if (design.at(i, feature) < t)
            leftScratch.push_back(i);
        else
            rightScratch.push_back(i);
    }
    assert(!leftScratch.empty() && !rightScratch.empty());
    const std::size_t left = node(leftScratch);
    const std::size_t right = node(rightScratch);
    records[id].splits.push_back({cut, left, right});
    return {left, right};
}

const FitDesign::Node &
FitDesign::response(std::size_t id)
{
    Node &n = records[id];
    if (!n.hasResponse) {
        fillResponse(n);
        n.hasResponse = true;
    }
    return n;
}

void
FitDesign::fillChains(Node &n)
{
    const std::size_t rowsN = rows();
    const std::size_t m = n.items.size();
    const std::size_t d = dims();
    n.chain.resize(d * m);
    n.cutBegin.assign(d + 1, 0);
    std::vector<std::uint32_t> &cuts = cutScratch;
    cuts.resize(d * m);
    std::size_t count = 0;

    // (rank << 32 | row): the comparator reads the rank half only, so
    // std::sort sees the outcomes x(a, f) < x(b, f) would give and
    // moves the rows exactly as the index sort did.
    std::vector<std::uint64_t> &keyed = keyScratch;
    keyed.resize(m);
    const std::uint32_t *prev = n.items.data();
    for (std::size_t f = 0; f < d; ++f) {
        const std::uint32_t *ranks = rank.data() + f * rowsN;
        for (std::size_t k = 0; k < m; ++k)
            keyed[k] = static_cast<std::uint64_t>(ranks[prev[k]]) << 32 |
                       prev[k];
        std::sort(keyed.begin(), keyed.end(),
                  [](std::uint64_t a, std::uint64_t b) {
                      return (a >> 32) < (b >> 32);
                  });

        // Unpack the chain and note its cuts: positions whose rank (so
        // value) differs from the next one's, written without a branch.
        std::uint32_t *out = n.chain.data() + f * m;
        for (std::size_t pos = 0; pos + 1 < m; ++pos) {
            out[pos] = static_cast<std::uint32_t>(keyed[pos]);
            cuts[count] = static_cast<std::uint32_t>(pos);
            count += (keyed[pos] >> 32) != (keyed[pos + 1] >> 32);
        }
        out[m - 1] = static_cast<std::uint32_t>(keyed[m - 1]);
        n.cutBegin[f + 1] = static_cast<std::uint32_t>(count);
        prev = out;
    }
    n.cuts.assign(cuts.begin(),
                  cuts.begin() + static_cast<std::ptrdiff_t>(count));
}

void
FitDesign::fillResponse(Node &n)
{
    const std::size_t rowsN = rows();
    const std::size_t d = dims();
    n.radius.resize(d);
    for (std::size_t f = 0; f < d; ++f)
        n.radius[f] = std::max(unitScale * n.halfWidth[f], unitFloor);

    // z^2 per (dimension, rank), exactly as responseAt forms it for
    // that value; each row then sums its dimensions' entries in order.
    std::vector<double> &z2 = z2Scratch;
    z2.resize(levelValue.size());
    for (std::size_t f = 0; f < d; ++f)
        for (std::uint32_t s = levelBegin[f]; s < levelBegin[f + 1]; ++s) {
            double z = (levelValue[s] - n.center[f]) / n.radius[f];
            z2[s] = z * z;
        }

    // Dimension-major passes keep every row's sum in its own chain
    // (from 0.0, dimensions in order) while the rows run side by side.
    auto &acc = n.column;
    acc.assign(rowsN, 0.0);
    for (std::size_t f = 0; f < d; ++f) {
        const double *table = z2.data() + levelBegin[f];
        const std::uint32_t *ranks = rank.data() + f * rowsN;
        for (std::size_t r = 0; r < rowsN; ++r)
            acc[r] += table[ranks[r]];
    }
    for (double &v : acc)
        v = std::exp(-v);

    double mean = 0.0;
    for (double v : n.column)
        mean += v;
    mean /= static_cast<double>(rowsN);
    double norm = 0.0;
    for (double v : n.column) {
        double c = v - mean;
        norm += c * c;
    }
    n.mean = mean;
    n.centredNorm = norm;
}

} // namespace wavedyn
