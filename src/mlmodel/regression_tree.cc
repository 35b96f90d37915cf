#include "mlmodel/regression_tree.hh"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace wavedyn
{

RegressionTree::RegressionTree(TreeOptions opts) : opts(opts)
{
}

namespace
{

/** Mean and SSE of y over the given items. */
void
nodeStats(const std::vector<double> &y,
          const FitDesign::Node::Array<std::uint32_t> &items,
          double &mean, double &sse)
{
    mean = 0.0;
    for (std::size_t i : items)
        mean += y[i];
    mean /= static_cast<double>(items.size());
    sse = 0.0;
    for (std::size_t i : items) {
        double d = y[i] - mean;
        sse += d * d;
    }
}

/** Candidate split evaluation result. */
struct BestSplit
{
    bool found = false;
    std::size_t feature = 0;
    std::size_t cut = 0; //!< index into the node's cuts
    double gain = 0.0;
};

/**
 * Prefix sums of y and y^2 along W features' chains side by side:
 * sum[f * n + pos] and sq[f * n + pos] hold the sums over chain
 * positions 0..pos, each feature in its own sequential accumulator.
 */
template <std::size_t W>
void
prefixSums(const std::uint32_t *chain, std::size_t n, std::size_t f0,
           const std::vector<double> &y, double *sum, double *sq)
{
    const std::uint32_t *c[W];
    double s[W], q[W];
    for (std::size_t k = 0; k < W; ++k) {
        c[k] = chain + (f0 + k) * n;
        s[k] = 0.0;
        q[k] = 0.0;
    }
    for (std::size_t pos = 0; pos < n; ++pos)
        for (std::size_t k = 0; k < W; ++k) {
            double yi = y[c[k][pos]];
            s[k] += yi;
            q[k] += yi * yi;
            sum[(f0 + k) * n + pos] = s[k];
            sq[(f0 + k) * n + pos] = q[k];
        }
}

/**
 * Exhaustive best split over a node's memoised chains: prefix sums
 * four features at a time, then every admissible cut scored in
 * (feature, position) order against one running best.
 */
BestSplit
findBestSplit(const FitDesign::Node &node, std::size_t dims,
              const std::vector<double> &y, std::size_t min_leaf,
              double parent_sse, std::vector<double> &sum,
              std::vector<double> &sq)
{
    BestSplit best;
    const std::size_t n = node.items.size();
    sum.resize(dims * n);
    sq.resize(dims * n);
    const std::uint32_t *chain = node.chain.data();
    std::size_t f = 0;
    for (; f + 4 <= dims; f += 4)
        prefixSums<4>(chain, n, f, y, sum.data(), sq.data());
    for (; f < dims; ++f)
        prefixSums<1>(chain, n, f, y, sum.data(), sq.data());

    for (f = 0; f < dims; ++f) {
        const double total_sum = sum[f * n + n - 1];
        const double total_sq = sq[f * n + n - 1];
        for (std::uint32_t c = node.cutBegin[f]; c < node.cutBegin[f + 1];
             ++c) {
            std::size_t pos = node.cuts[c];
            std::size_t left_n = pos + 1;
            std::size_t right_n = n - left_n;
            if (left_n < min_leaf || right_n < min_leaf)
                continue;

            double left_sum = sum[f * n + pos];
            double left_sq = sq[f * n + pos];
            double ln = static_cast<double>(left_n);
            double rn = static_cast<double>(right_n);
            double right_sum = total_sum - left_sum;
            double right_sq = total_sq - left_sq;
            double left_sse = left_sq - left_sum * left_sum / ln;
            double right_sse = right_sq - right_sum * right_sum / rn;
            double gain = parent_sse - (left_sse + right_sse);

            if (gain > best.gain) {
                best.found = true;
                best.feature = f;
                best.cut = c;
                best.gain = gain;
            }
        }
    }
    return best;
}

} // anonymous namespace

/** What one fit threads through the recursion. */
struct RegressionTree::Growth
{
    FitDesign &design;
    const std::vector<double> &y;
    std::vector<std::size_t> *designNodes;
    std::vector<double> sum; //!< prefix-sum scratch of the split scan
    std::vector<double> sq;
};

std::size_t
RegressionTree::build(Growth &g, std::size_t rec, std::size_t depth)
{
    std::size_t id = tree.size();
    tree.emplace_back();
    if (g.designNodes)
        g.designNodes->push_back(rec);

    const FitDesign::Node &r = g.design.at(rec);
    {
        TreeNode &node = tree[id];
        node.depth = depth;
        node.count = r.items.size();
        nodeStats(g.y, r.items, node.mean, node.sse);

        // Hyper-rectangle statistics used by the RBF construction.
        node.center.assign(r.center.begin(), r.center.end());
        node.halfWidth.assign(r.halfWidth.begin(), r.halfWidth.end());
    }

    if (depth >= opts.maxDepth || r.items.size() < 2 * opts.minLeaf)
        return id;

    BestSplit split = findBestSplit(g.design.chains(rec), g.design.dims(),
                                    g.y, opts.minLeaf, tree[id].sse, g.sum,
                                    g.sq);
    if (!split.found || split.gain < opts.minGain)
        return id;
    const double threshold =
        g.design.threshold(g.design.at(rec), split.feature, split.cut);
    const auto children = g.design.split(rec, split.feature, split.cut);

    // Record split statistics before recursing.
    FeatureImportance &fi = featStats[split.feature];
    fi.firstSplitDepth = std::min(fi.firstSplitDepth, depth);
    fi.splitCount += 1;
    fi.gainSum += split.gain;

    std::size_t left_id = build(g, children.first, depth + 1);
    std::size_t right_id = build(g, children.second, depth + 1);
    tree[id].feature = split.feature;
    tree[id].threshold = threshold;
    tree[id].left = left_id;
    tree[id].right = right_id;
    return id;
}

void
RegressionTree::fit(const Matrix &x, const std::vector<double> &y)
{
    FitDesign design(x);
    fit(design, y);
}

void
RegressionTree::fit(FitDesign &design, const std::vector<double> &y,
                    std::vector<std::size_t> *designNodes)
{
    assert(design.rows() == y.size());
    assert(design.rows() > 0);
    tree.clear();
    // Leaves hold minLeaf items or more, so a tree has fewer than
    // 2 * rows / minLeaf nodes.
    tree.reserve(2 * design.rows() / std::max<std::size_t>(opts.minLeaf, 1));
    featStats.assign(design.dims(), FeatureImportance{});
    if (designNodes)
        designNodes->clear();

    std::vector<std::uint32_t> items(design.rows());
    for (std::size_t i = 0; i < items.size(); ++i)
        items[i] = static_cast<std::uint32_t>(i);
    Growth g{design, y, designNodes, {}, {}};
    build(g, design.node(items), 0);
}

double
RegressionTree::predict(const std::vector<double> &input) const
{
    assert(!tree.empty());
    std::size_t id = 0;
    while (!tree[id].isLeaf()) {
        const TreeNode &node = tree[id];
        assert(node.feature < input.size());
        id = input[node.feature] < node.threshold ? node.left : node.right;
    }
    return tree[id].mean;
}

std::size_t
RegressionTree::leafCount() const
{
    std::size_t n = 0;
    for (const auto &node : tree)
        if (node.isLeaf())
            ++n;
    return n;
}

std::size_t
RegressionTree::depth() const
{
    std::size_t d = 0;
    for (const auto &node : tree)
        d = std::max(d, node.depth);
    return d;
}

std::vector<double>
RegressionTree::spokesByOrder() const
{
    std::vector<double> out(featStats.size(), 0.0);
    for (std::size_t f = 0; f < featStats.size(); ++f) {
        const auto &fi = featStats[f];
        if (fi.splitCount > 0)
            out[f] = 1.0 / (1.0 + static_cast<double>(fi.firstSplitDepth));
    }
    return out;
}

std::vector<double>
RegressionTree::spokesByFrequency() const
{
    std::vector<double> out(featStats.size(), 0.0);
    double max_count = 0.0;
    for (const auto &fi : featStats)
        max_count = std::max(max_count,
                             static_cast<double>(fi.splitCount));
    if (max_count == 0.0)
        return out;
    for (std::size_t f = 0; f < featStats.size(); ++f)
        out[f] = static_cast<double>(featStats[f].splitCount) / max_count;
    return out;
}

} // namespace wavedyn
