/**
 * @file
 * Tests for the shared fit design: memoised nodes must hand every fit
 * exactly the values a fit on its own computes — the sort chains of
 * the split search, the cut thresholds, and the unit response columns
 * — whether the node is new or was grown by an earlier fit.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iomanip>
#include <limits>
#include <sstream>

#include "linalg/matrix.hh"
#include "mlmodel/fit_design.hh"
#include "mlmodel/rbf_network.hh"
#include "mlmodel/regression_tree.hh"
#include "util/rng.hh"

namespace wavedyn
{
namespace
{

/** n x 9 design on a 4-level grid (many ties), like normalised LHS. */
Matrix
gridDesign(std::size_t n, std::uint64_t seed)
{
    Rng rng(seed);
    Matrix x(n, 9);
    for (std::size_t r = 0; r < n; ++r)
        for (std::size_t c = 0; c < 9; ++c)
            x.at(r, c) = static_cast<double>(rng.below(4)) / 3.0;
    return x;
}

/** Off-grid values: mostly distinct, with repeats and both zeros. */
Matrix
offGridDesign(std::size_t n, std::uint64_t seed)
{
    Rng rng(seed);
    Matrix x(n, 9);
    for (std::size_t r = 0; r < n; ++r)
        for (std::size_t c = 0; c < 9; ++c)
            x.at(r, c) = rng.uniform() * 1.3 - 0.15;
    for (std::size_t r = 0; r + 3 < n; r += 7)
        for (std::size_t c = 0; c < 9; ++c)
            x.at(r + 3, c) = x.at(r, c);
    x.at(1, 0) = 0.0;
    x.at(2, 0) = -0.0;
    x.at(5, 0) = 0.0;
    return x;
}

/** A smooth response plus a step, one shape per coefficient index. */
std::vector<double>
response(const Matrix &x, std::size_t k)
{
    std::vector<double> y(x.rows());
    for (std::size_t r = 0; r < x.rows(); ++r) {
        double a = x.at(r, k % 9), b = x.at(r, (k + 4) % 9);
        y[r] = std::sin(3.0 * a + 0.1 * static_cast<double>(k)) +
               (b > 0.5 ? 0.7 : -0.2) * static_cast<double>(k % 3) +
               0.05 * a * b;
    }
    return y;
}

std::string
saved(const RbfNetwork &net)
{
    std::ostringstream os;
    net.save(os);
    net.seedTree().save(os);
    return os.str();
}

/** The split search's chain as the index sort computes it. */
std::vector<std::uint32_t>
referenceChain(const Matrix &x, const std::vector<std::uint32_t> &items)
{
    std::vector<std::size_t> order(items.begin(), items.end());
    std::vector<std::uint32_t> out;
    for (std::size_t f = 0; f < x.cols(); ++f) {
        std::sort(order.begin(), order.end(),
                  [&](std::size_t a, std::size_t b) {
                      return x.at(a, f) < x.at(b, f);
                  });
        out.insert(out.end(), order.begin(), order.end());
    }
    return out;
}

/** Chains, cuts and thresholds of a node against the references. */
void
expectChainsExact(const Matrix &x, const std::vector<std::uint32_t> &items)
{
    FitDesign design(x);
    const FitDesign::Node &node = design.chains(design.node(items));
    ASSERT_EQ(std::vector<std::uint32_t>(node.chain.begin(), node.chain.end()),
              referenceChain(x, items))
        << items.size();
    const std::size_t m = items.size();
    for (std::size_t f = 0; f < x.cols(); ++f) {
        std::vector<std::uint32_t> cuts;
        std::vector<double> thresholds;
        for (std::size_t pos = 0; pos + 1 < m; ++pos) {
            double a = x.at(node.chain[f * m + pos], f);
            double b = x.at(node.chain[f * m + pos + 1], f);
            if (a == b)
                continue;
            cuts.push_back(static_cast<std::uint32_t>(pos));
            thresholds.push_back(0.5 * (a + b));
        }
        std::vector<std::uint32_t> gotCuts(
            node.cuts.begin() + node.cutBegin[f],
            node.cuts.begin() + node.cutBegin[f + 1]);
        std::vector<double> gotThresholds;
        for (std::size_t c = node.cutBegin[f]; c < node.cutBegin[f + 1];
             ++c)
            gotThresholds.push_back(design.threshold(node, f, c));
        EXPECT_EQ(gotCuts, cuts) << "feature " << f;
        ASSERT_EQ(gotThresholds.size(), thresholds.size());
        for (std::size_t c = 0; c < thresholds.size(); ++c)
            EXPECT_EQ(std::memcmp(&gotThresholds[c], &thresholds[c],
                                  sizeof(double)),
                      0)
                << "feature " << f << " cut " << c;
    }
}

/** Every other row, then the rows whose index is 1 mod 3. */
std::vector<std::vector<std::uint32_t>>
itemSets(std::size_t n)
{
    std::vector<std::vector<std::uint32_t>> sets;
    for (std::size_t size : {2u, 5u, 12u, 16u, 17u, 33u}) {
        if (size > n)
            continue;
        std::vector<std::uint32_t> items;
        for (std::size_t r = 0; r < n && items.size() < size; r += 2)
            items.push_back(static_cast<std::uint32_t>(r));
        sets.push_back(items);
    }
    std::vector<std::uint32_t> thirds, all;
    for (std::size_t r = 0; r < n; ++r) {
        if (r % 3 == 1)
            thirds.push_back(static_cast<std::uint32_t>(r));
        all.push_back(static_cast<std::uint32_t>(r));
    }
    sets.push_back(thirds);
    sets.push_back(all);
    return sets;
}

TEST(FitDesign, ChainsMatchTheIndexSortOnSmallAndLargeNodes)
{
    // n <= 16 sorts by insertion only; larger nodes partition first.
    Matrix x = gridDesign(80, 3);
    for (const auto &items : itemSets(x.rows()))
        expectChainsExact(x, items);
}

TEST(FitDesign, ChainsMatchTheIndexSortOffGrid)
{
    Matrix x = offGridDesign(70, 5);
    for (const auto &items : itemSets(x.rows()))
        expectChainsExact(x, items);
}

TEST(FitDesign, ResponseColumnIsResponseAtBitwise)
{
    for (const Matrix &x : {gridDesign(60, 7), offGridDesign(70, 9)}) {
        FitDesign design(x, 1.3, 0.05);
        for (const auto &items : itemSets(x.rows())) {
            const FitDesign::Node &node =
                design.response(design.node(items));
            RbfUnit unit;
            unit.center.assign(node.center.begin(), node.center.end());
            unit.radius.assign(node.radius.begin(), node.radius.end());
            for (std::size_t d = 0; d < unit.radius.size(); ++d)
                EXPECT_EQ(unit.radius[d],
                          std::max(1.3 * node.halfWidth[d], 0.05));
            ASSERT_EQ(node.column.size(), x.rows());
            for (std::size_t r = 0; r < x.rows(); ++r) {
                double want = RbfNetwork::responseAt(unit, x.rowPtr(r));
                EXPECT_EQ(std::memcmp(&node.column[r], &want,
                                      sizeof want),
                          0)
                    << "row " << r << " of a " << items.size()
                    << "-item node";
            }
        }
    }
}

TEST(FitDesign, RepeatedItemListHitsTheSameRecord)
{
    Matrix x = gridDesign(30, 11);
    FitDesign design(x);
    std::vector<std::uint32_t> a = {1, 4, 9, 16, 25};
    std::vector<std::uint32_t> b = {1, 4, 9, 16};
    std::size_t ida = design.node(a);
    std::size_t idb = design.node(b);
    EXPECT_NE(ida, idb);
    EXPECT_EQ(design.node(a), ida);
    EXPECT_EQ(design.node(b), idb);
    EXPECT_EQ(design.nodeCount(), 2u);
    EXPECT_EQ(design.nodeHits(), 2u);
}

TEST(FitDesign, RejectsNaN)
{
    Matrix x = gridDesign(10, 13);
    x.at(4, 2) = std::nan("");
    EXPECT_THROW(FitDesign{x}, std::invalid_argument);
}

TEST(FitDesign, RadiusOptionsMustMatchTheNetwork)
{
    Matrix x = gridDesign(20, 15);
    FitDesign design(x, 2.0, 0.05);
    RbfNetwork net; // radiusScale 1.0
    EXPECT_THROW(net.fit(design, response(x, 0)), std::invalid_argument);
}

double
plainDot(const std::vector<double> &a, const std::vector<double> &b)
{
    double acc = 0.0;
    for (std::size_t r = 0; r < a.size(); ++r)
        acc += a[r] * b[r];
    return acc;
}

/** What the plain forward-GCV reference fitted. */
struct PlainGcvFit
{
    std::string saved;             //!< in RbfNetwork::save() layout
    std::size_t zeroProjections = 0; //!< live columns with p == 0.0
};

/**
 * Forward GCV as plain modified Gram-Schmidt on the same candidates:
 * after each selection, every live column is deflated (a projection
 * of 0.0 included) and its squared norm and residual product are
 * summed again from scratch, each a sequential chain from 0.0.
 */
PlainGcvFit
plainForwardGcv(const Matrix &x, const std::vector<double> &y,
                const RbfOptions &opts)
{
    FitDesign design(x, opts.radiusScale, opts.radiusFloor);
    RegressionTree tree(opts.tree);
    std::vector<std::size_t> ids;
    tree.fit(design, y, &ids);
    std::vector<const FitDesign::Node *> cand;
    for (std::size_t id : ids)
        cand.push_back(&design.response(id));

    const std::size_t n = y.size(), m = cand.size();
    double ymean = 0.0;
    for (double v : y)
        ymean += v;
    ymean /= static_cast<double>(n);
    std::vector<double> resid(n);
    for (std::size_t r = 0; r < n; ++r)
        resid[r] = y[r] - ymean;
    std::vector<std::vector<double>> q(m, std::vector<double>(n));
    std::vector<double> qq(m), qy(m);
    for (std::size_t j = 0; j < m; ++j) {
        for (std::size_t r = 0; r < n; ++r)
            q[j][r] = cand[j]->column[r] - cand[j]->mean;
        qq[j] = plainDot(q[j], q[j]);
        qy[j] = plainDot(q[j], resid);
    }
    double sse = plainDot(resid, resid);
    double denom0 = static_cast<double>(n - 1);
    double bestGcv = static_cast<double>(n) * sse / (denom0 * denom0);

    PlainGcvFit out;
    const double normTol = 1e-10 * static_cast<double>(n);
    std::vector<bool> used(m, false);
    std::vector<std::size_t> selected;
    while (selected.size() < std::min(opts.maxUnits, m) &&
           selected.size() + 2 < n) {
        double bestRed = 0.0;
        std::size_t best = m;
        for (std::size_t j = 0; j < m; ++j) {
            if (used[j] || qq[j] < normTol)
                continue;
            double red = qy[j] * qy[j] / qq[j];
            if (red > bestRed) {
                bestRed = red;
                best = j;
            }
        }
        if (best == m)
            break;
        double newSse = std::max(sse - bestRed, 0.0);
        double denom = static_cast<double>(n - selected.size() - 2);
        double gcv = denom > 0.0
                         ? static_cast<double>(n) * newSse / (denom * denom)
                         : std::numeric_limits<double>::max();
        if (gcv >= bestGcv)
            break;
        bestGcv = gcv;
        sse = newSse;
        used[best] = true;
        selected.push_back(best);
        const std::vector<double> &qb = q[best];
        double coef = qy[best] / qq[best];
        for (std::size_t r = 0; r < n; ++r)
            resid[r] -= coef * qb[r];
        for (std::size_t j = 0; j < m; ++j) {
            if (used[j])
                continue;
            double p = plainDot(q[j], qb) / qq[best];
            if (p == 0.0 && qq[j] >= normTol)
                ++out.zeroProjections;
            for (std::size_t r = 0; r < n; ++r)
                q[j][r] -= p * qb[r];
            qq[j] = plainDot(q[j], q[j]);
            qy[j] = plainDot(q[j], resid);
        }
    }

    // The exact refit on the selected columns, as the network does.
    Matrix sel(n, selected.size() + 1);
    for (std::size_t r = 0; r < n; ++r) {
        sel.at(r, 0) = 1.0;
        for (std::size_t c = 0; c < selected.size(); ++c)
            sel.at(r, c + 1) = cand[selected[c]]->column[r];
    }
    SolveResult sol = ridgeSolve(sel, y, opts.ridgeLambda);
    EXPECT_TRUE(sol.ok);
    std::ostringstream os;
    os << std::setprecision(std::numeric_limits<double>::max_digits10)
       << "rbf-network " << sol.x[0] << " " << selected.size() << " "
       << (selected.empty() ? 0 : x.cols()) << "\n";
    for (std::size_t c = 0; c < selected.size(); ++c) {
        for (double v : cand[selected[c]]->center)
            os << v << " ";
        for (double v : cand[selected[c]]->radius)
            os << v << " ";
        os << sol.x[c + 1] << "\n";
    }
    out.saved = os.str();
    return out;
}

TEST(FitDesign, ForwardGcvZeroProjectionMatchesPlainGramSchmidt)
{
    // A 2 x 2 x 2 factorial, four replicates, rows in (a, b, c) order
    // with c fastest. A unit radius floor of 0.01 against a level gap
    // of 0.5 underflows every response off its own levels to 0.0, and
    // a radius scale of 1e9 flattens it to exactly 1.0 across the
    // levels its node spans, so every unit column is the indicator of
    // its node's rows and all deflation arithmetic on them is exact.
    // Once a node B and then its ancestor C are selected, a child J of
    // B deflates to +-1/2 on B (alternating rows) and 0 elsewhere,
    // while C's column is one constant on B: the projection sums to
    // exactly 0.0 although both columns are live on B, so only J's
    // residual product moves. The response is one under which a stale
    // residual product for such a column changes the selection.
    Matrix x(32, 3);
    for (std::size_t r = 0; r < 32; ++r)
        for (std::size_t f = 0; f < 3; ++f)
            x.at(r, f) = (r >> (2 - f)) & 1 ? 0.75 : 0.25;
    const std::vector<double> y = {
        0.7, 0.3, 0.2, 0.1, 0.1, 0.0, 0.1, 0.1,   //
        0.6, 0.2, 0.3, 0.3, -0.1, -0.1, 0.1, 0.1, //
        0.5, 0.4, 0.3, 0.1, 0.0, -0.1, 0.0, 0.0,  //
        0.6, 0.3, 0.2, 0.3, 0.1, 0.1, 0.1, 0.1};
    RbfOptions opts;
    opts.radiusScale = 1e9;
    opts.radiusFloor = 0.01;

    PlainGcvFit plain = plainForwardGcv(x, y, opts);
    EXPECT_GT(plain.zeroProjections, 0u);
    RbfNetwork net(opts);
    net.fit(x, y);
    std::ostringstream os;
    net.save(os);
    EXPECT_EQ(os.str(), plain.saved);
}

/**
 * A coefficient fitted alone and the same coefficient fitted on a
 * design that 15 other coefficients' fits have warmed must save the
 * same bytes (network and seed tree).
 */
void
expectWarmEqualsAlone(const Matrix &x, RbfFit fit)
{
    RbfOptions opts;
    opts.fit = fit;
    FitDesign shared(x, opts.radiusScale, opts.radiusFloor);
    for (std::size_t k = 0; k < 15; ++k) {
        RbfNetwork warm(opts);
        warm.fit(shared, response(x, k));
    }
    EXPECT_GT(shared.nodeHits(), 0u);
    for (std::size_t k : {3u, 15u}) {
        RbfNetwork onShared(opts), alone(opts);
        onShared.fit(shared, response(x, k));
        alone.fit(x, response(x, k));
        EXPECT_EQ(saved(onShared), saved(alone)) << "coefficient " << k;
    }
}

TEST(FitDesign, WarmedDesignFitsLikeAFitAlone)
{
    expectWarmEqualsAlone(gridDesign(60, 17), RbfFit::ForwardGcv);
    expectWarmEqualsAlone(gridDesign(60, 17), RbfFit::RidgeAll);
    expectWarmEqualsAlone(gridDesign(70, 19), RbfFit::ForwardGcv);
}

TEST(FitDesign, WarmedDesignFitsLikeAFitAloneOffGrid)
{
    expectWarmEqualsAlone(offGridDesign(64, 23), RbfFit::ForwardGcv);
    expectWarmEqualsAlone(offGridDesign(64, 23), RbfFit::RidgeAll);
}

} // namespace
} // namespace wavedyn
