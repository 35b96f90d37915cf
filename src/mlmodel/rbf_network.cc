#include "mlmodel/rbf_network.hh"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace wavedyn
{

RbfNetwork::RbfNetwork(RbfOptions opts) : opts(opts)
{
}

double
RbfNetwork::response(const RbfUnit &unit, const std::vector<double> &input)
{
    assert(unit.center.size() == input.size());
    return responseAt(unit, input.data());
}

double
RbfNetwork::responseAt(const RbfUnit &unit, const double *input)
{
    double acc = 0.0;
    for (std::size_t d = 0; d < unit.center.size(); ++d) {
        double z = (input[d] - unit.center[d]) / unit.radius[d];
        acc += z * z;
    }
    return std::exp(-acc);
}

namespace
{

/**
 * dot(a_k, b) for W columns a_k of a column-major block side by side,
 * each one sequential chain over the rows from 0.0, as dot() forms it.
 */
template <std::size_t W>
void
dots(const double *block, std::size_t n, const std::size_t *cols,
     const double *b, double *out)
{
    const double *a[W];
    double acc[W];
    for (std::size_t k = 0; k < W; ++k) {
        a[k] = block + cols[k] * n;
        acc[k] = 0.0;
    }
    for (std::size_t r = 0; r < n; ++r)
        for (std::size_t k = 0; k < W; ++k)
            acc[k] += a[k][r] * b[r];
    for (std::size_t k = 0; k < W; ++k)
        out[k] = acc[k];
}

/**
 * Deflate W columns against qb (a_k -= proj_k * qb, row by row) and,
 * from the values stored, sum each column's squared norm and its
 * product with resid: sequential chains from 0.0, side by side.
 */
template <std::size_t W>
void
deflate(double *block, std::size_t n, const std::size_t *cols,
        const double *proj, const double *qb, const double *resid,
        double *qq, double *qy)
{
    double *a[W];
    double p[W], aq[W], ay[W];
    for (std::size_t k = 0; k < W; ++k) {
        a[k] = block + cols[k] * n;
        p[k] = proj[k];
        aq[k] = 0.0;
        ay[k] = 0.0;
    }
    for (std::size_t r = 0; r < n; ++r)
        for (std::size_t k = 0; k < W; ++k) {
            double v = a[k][r] - p[k] * qb[r];
            a[k][r] = v;
            aq[k] += v * v;
            ay[k] += v * resid[r];
        }
    for (std::size_t k = 0; k < W; ++k) {
        qq[k] = aq[k];
        qy[k] = ay[k];
    }
}

/** dots() over a column list, four at a time, then one at a time. */
void
dotsOf(const double *block, std::size_t n,
       const std::vector<std::size_t> &cols, const double *b,
       double *out)
{
    std::size_t i = 0;
    for (; i + 4 <= cols.size(); i += 4)
        dots<4>(block, n, cols.data() + i, b, out + i);
    for (; i < cols.size(); ++i)
        dots<1>(block, n, cols.data() + i, b, out + i);
}

} // anonymous namespace

void
RbfNetwork::fit(const Matrix &x, const std::vector<double> &y)
{
    FitDesign design(x, opts.radiusScale, opts.radiusFloor);
    fit(design, y);
}

void
RbfNetwork::fit(FitDesign &design, const std::vector<double> &y)
{
    assert(design.rows() == y.size());
    assert(design.rows() > 0);
    if (design.radiusScale() != opts.radiusScale ||
        design.radiusFloor() != opts.radiusFloor)
        throw std::invalid_argument(
            "RbfNetwork::fit: the design's unit radius options differ "
            "from the network's");

    net.clear();
    w0 = 0.0;

    // Seed: one candidate unit per regression tree node.
    tree = RegressionTree(opts.tree);
    std::vector<std::size_t> ids;
    tree.fit(design, y, &ids);

    Candidates cand;
    cand.reserve(ids.size());
    for (std::size_t id : ids)
        cand.push_back(&design.response(id));

    if (opts.fit == RbfFit::RidgeAll)
        fitRidgeAll(cand, y);
    else
        fitForwardGcv(cand, y);
}

void
RbfNetwork::addUnit(const FitDesign::Node &node, double weight)
{
    RbfUnit u;
    u.center.assign(node.center.begin(), node.center.end());
    u.radius.assign(node.radius.begin(), node.radius.end());
    u.weight = weight;
    net.push_back(std::move(u));
}

void
RbfNetwork::fitRidgeAll(const Candidates &cand,
                        const std::vector<double> &y)
{
    const std::size_t n = y.size();
    Matrix phi(n, cand.size() + 1);
    for (std::size_t r = 0; r < n; ++r) {
        phi.at(r, 0) = 1.0;
        for (std::size_t j = 0; j < cand.size(); ++j)
            phi.at(r, j + 1) = cand[j]->column[r];
    }
    SolveResult sol = ridgeSolve(phi, y, opts.ridgeLambda);
    if (!sol.ok) {
        // Degenerate training set: fall back to the mean predictor.
        double mean = 0.0;
        for (double v : y)
            mean += v;
        w0 = mean / static_cast<double>(y.size());
        return;
    }
    w0 = sol.x[0];
    for (std::size_t j = 0; j < cand.size(); ++j)
        if (sol.x[j + 1] != 0.0)
            addUnit(*cand[j], sol.x[j + 1]);
}

void
RbfNetwork::fitForwardGcv(const Candidates &cand,
                          const std::vector<double> &y)
{
    const std::size_t n = y.size();
    const std::size_t m = cand.size();

    // Orthogonal least squares forward selection. The bias column is
    // always in the basis; candidate columns are kept orthogonalised
    // against everything selected so far (modified Gram-Schmidt) in
    // one flat block q, n rows per candidate column, with each
    // column's squared norm in qq and its product with the residual
    // in qy.
    std::vector<double> q(n * m);
    std::vector<double> qq(m), qy(m);
    for (std::size_t j = 0; j < m; ++j) {
        const auto &phi = cand[j]->column;
        double *col = q.data() + j * n;
        for (std::size_t r = 0; r < n; ++r)
            col[r] = phi[r] - cand[j]->mean;
        qq[j] = cand[j]->centredNorm;
    }

    // Orthogonalise the response against the bias (constant) column.
    std::vector<double> resid = y;
    {
        double ymean = 0.0;
        for (double v : y)
            ymean += v;
        ymean /= static_cast<double>(n);
        for (double &v : resid)
            v -= ymean;
    }
    std::vector<std::size_t> live(m);
    for (std::size_t j = 0; j < m; ++j)
        live[j] = j;
    dotsOf(q.data(), n, live, resid.data(), qy.data());

    double sse = dot(resid, resid);
    double best_gcv = std::numeric_limits<double>::max();
    if (n > 1) {
        double denom = static_cast<double>(n - 1);
        best_gcv = static_cast<double>(n) * sse / (denom * denom);
    }

    std::vector<bool> used(m, false);
    std::vector<std::size_t> selected;
    const double norm_tol = 1e-10 * static_cast<double>(n);

    // Per-step scratch: projections of the live columns, and the live
    // columns split by whether their projection is exactly zero.
    std::vector<double> proj(m), moving(m), laneQq(m), laneQy(m);
    std::vector<std::size_t> moved, still;

    std::size_t max_units = std::min(opts.maxUnits, m);
    while (selected.size() < max_units &&
           selected.size() + 2 < n) {
        // Pick the candidate with the largest error reduction.
        double best_red = 0.0;
        std::size_t best_j = m;
        for (std::size_t j = 0; j < m; ++j) {
            if (used[j])
                continue;
            if (qq[j] < norm_tol)
                continue;
            double red = qy[j] * qy[j] / qq[j];
            if (red > best_red) {
                best_red = red;
                best_j = j;
            }
        }
        if (best_j == m)
            break;

        double new_sse = std::max(sse - best_red, 0.0);
        std::size_t gamma = selected.size() + 2; // units + bias + new one
        double denom = static_cast<double>(n - gamma);
        double gcv = denom > 0.0
            ? static_cast<double>(n) * new_sse / (denom * denom)
            : std::numeric_limits<double>::max();
        if (gcv >= best_gcv)
            break;
        best_gcv = gcv;
        sse = new_sse;

        // Deflate the residual and the remaining candidates. The
        // chosen column's norm and residual product are the ones the
        // selection just compared.
        used[best_j] = true;
        selected.push_back(best_j);
        const double *qb = q.data() + best_j * n;
        const double qqb = qq[best_j];
        double coef = qy[best_j] / qqb;
        for (std::size_t r = 0; r < n; ++r)
            resid[r] -= coef * qb[r];

        live.clear();
        for (std::size_t j = 0; j < m; ++j)
            if (!used[j])
                live.push_back(j);
        dotsOf(q.data(), n, live, qb, proj.data());
        moved.clear();
        still.clear();
        for (std::size_t i = 0; i < live.size(); ++i) {
            double p = proj[i] / qqb;
            if (p == 0.0) {
                still.push_back(live[i]);
            } else {
                moving[moved.size()] = p;
                moved.push_back(live[i]);
            }
        }

        // A moved column is deflated and re-summed in one pass; a
        // column whose projection is exactly zero is left untouched
        // and only its product with the new residual is summed.
        std::size_t i = 0;
        for (; i + 4 <= moved.size(); i += 4)
            deflate<4>(q.data(), n, moved.data() + i, moving.data() + i,
                       qb, resid.data(), laneQq.data() + i,
                       laneQy.data() + i);
        for (; i < moved.size(); ++i)
            deflate<1>(q.data(), n, moved.data() + i, moving.data() + i,
                       qb, resid.data(), laneQq.data() + i,
                       laneQy.data() + i);
        for (i = 0; i < moved.size(); ++i) {
            qq[moved[i]] = laneQq[i];
            qy[moved[i]] = laneQy[i];
        }
        dotsOf(q.data(), n, still, resid.data(), laneQy.data());
        for (i = 0; i < still.size(); ++i)
            qy[still[i]] = laneQy[i];
    }

    // Refit exact weights on the selected original columns + bias.
    Matrix sel(n, selected.size() + 1);
    for (std::size_t r = 0; r < n; ++r) {
        sel.at(r, 0) = 1.0;
        for (std::size_t c = 0; c < selected.size(); ++c)
            sel.at(r, c + 1) = cand[selected[c]]->column[r];
    }
    SolveResult sol = ridgeSolve(sel, y, opts.ridgeLambda);
    if (!sol.ok) {
        double mean = 0.0;
        for (double v : y)
            mean += v;
        w0 = mean / static_cast<double>(n);
        return;
    }
    w0 = sol.x[0];
    for (std::size_t c = 0; c < selected.size(); ++c)
        addUnit(*cand[selected[c]], sol.x[c + 1]);
}

double
RbfNetwork::predict(const std::vector<double> &input) const
{
    double acc = w0;
    for (const RbfUnit &u : net)
        acc += u.weight * response(u, input);
    return acc;
}

std::vector<double>
RbfNetwork::predictMany(const Matrix &x) const
{
    // The exploration hot path: evaluate rows in place instead of
    // copying each into a fresh vector. Accumulation order matches
    // predict() exactly, so batched sweeps are bit-identical to
    // point-at-a-time prediction.
    assert(net.empty() || net.front().center.size() == x.cols());
    std::vector<double> out(x.rows());
    for (std::size_t r = 0; r < x.rows(); ++r) {
        const double *row = x.rowPtr(r);
        double acc = w0;
        for (const RbfUnit &u : net)
            acc += u.weight * responseAt(u, row);
        out[r] = acc;
    }
    return out;
}

} // namespace wavedyn
