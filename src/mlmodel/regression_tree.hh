/**
 * @file
 * CART-style regression tree.
 *
 * Two roles in this repo, both straight from the paper:
 *
 *  1. RBF centre/radius selection (Section 2.2): every tree node spans a
 *     hyper-rectangle of the input space; its centre and extent seed one
 *     Gaussian unit of the RBF network (Orr et al. 2000).
 *
 *  2. Parameter importance (Figure 11): the parameters that explain the
 *     most output variance split earliest ("split order") and most often
 *     ("split frequency"); the star plots are drawn from these statistics.
 *
 * Growth reads everything that depends only on x from a FitDesign
 * (mlmodel/fit_design.hh): each node's centre and half-width, the
 * per-feature sort chains of its split search with their cut
 * positions, and the children of a cut. fit(x, y) is a one-shot use of
 * a fresh design; the predictor shares one design across its
 * coefficient fits. A node another fit already grew is a memo hit, and
 * a hit is exact: item lists are ascending and every memoised value is
 * a pure function of the item list and x (the full argument is in
 * fit_design.hh), so a tree grown on a warmed design is the tree grown
 * alone.
 *
 * The split search is the exhaustive scan of a CART tree: for each
 * feature in order, walk the chain sorted by that feature, keep prefix
 * sums of y and y^2, and score every cut that leaves min-leaf items on
 * both sides; the first strictly larger gain wins. The prefix sums of
 * several features run side by side, each in its own accumulator and
 * in its chain's order, so every sum is the chain it always was (a
 * feature's total is its prefix at the chain's end: the separate
 * totals pass added the same values in the same order). The gains are
 * then scored feature by feature, cut by cut, against one running
 * best, as the one-feature-at-a-time loop scored them.
 */

#ifndef WAVEDYN_MLMODEL_REGRESSION_TREE_HH
#define WAVEDYN_MLMODEL_REGRESSION_TREE_HH

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "mlmodel/fit_design.hh"
#include "mlmodel/model.hh"

namespace wavedyn
{

/** Tree growth options. */
struct TreeOptions
{
    std::size_t maxDepth = 8;   //!< maximum split depth
    std::size_t minLeaf = 4;    //!< minimum samples per leaf
    double minGain = 1e-12;     //!< minimum SSE reduction to split
};

/** One node of a fitted regression tree. */
struct TreeNode
{
    static constexpr std::size_t none =
        std::numeric_limits<std::size_t>::max();

    std::size_t left = none;    //!< child for feature < threshold
    std::size_t right = none;   //!< child for feature >= threshold
    std::size_t feature = none; //!< split feature (none for leaves)
    double threshold = 0.0;     //!< split threshold
    double mean = 0.0;          //!< mean response in this node
    double sse = 0.0;           //!< sum of squared error around mean
    std::size_t count = 0;      //!< samples in this node
    std::size_t depth = 0;      //!< root is depth 0

    std::vector<double> center;    //!< per-dim mean of node inputs
    std::vector<double> halfWidth; //!< per-dim half extent of node inputs

    bool isLeaf() const { return feature == none; }
};

/** Split-order / split-frequency importance for one feature. */
struct FeatureImportance
{
    std::size_t firstSplitDepth =
        std::numeric_limits<std::size_t>::max(); //!< min depth of a split
    std::size_t splitCount = 0;                  //!< number of splits
    double gainSum = 0.0;                        //!< total SSE reduction
};

/**
 * Regression tree implementing the RegressionModel interface.
 */
class RegressionTree : public RegressionModel
{
  public:
    explicit RegressionTree(TreeOptions opts = {});

    void fit(const Matrix &x, const std::vector<double> &y) override;

    /**
     * Fit on a shared design (the tree fit() grows on its x).
     * @param designNodes when non-null, receives the design record id
     *        of every node, in nodes() order.
     */
    void fit(FitDesign &design, const std::vector<double> &y,
             std::vector<std::size_t> *designNodes = nullptr);
    double predict(const std::vector<double> &input) const override;
    std::string name() const override { return "regression-tree"; }
    void save(std::ostream &os) const override;

    /** Restore a tree saved with save() (name token consumed). */
    static std::unique_ptr<RegressionTree> load(std::istream &is);

    /** All nodes, root first. Empty before fit. */
    const std::vector<TreeNode> &nodes() const { return tree; }

    /** Number of leaves. */
    std::size_t leafCount() const;

    /** Maximum depth of any node. */
    std::size_t depth() const;

    /** Per-feature split statistics (size = input dimension). */
    const std::vector<FeatureImportance> &importance() const
    {
        return featStats;
    }

    /**
     * Importance expressed as star-plot spoke lengths in [0,1]:
     * order mode gives 1/(1+firstSplitDepth) (0 when never split),
     * frequency mode gives splitCount scaled by the max count.
     */
    std::vector<double> spokesByOrder() const;
    std::vector<double> spokesByFrequency() const;

  private:
    struct Growth;
    std::size_t build(Growth &g, std::size_t rec, std::size_t depth);

    TreeOptions opts;
    std::vector<TreeNode> tree;
    std::vector<FeatureImportance> featStats;
};

} // namespace wavedyn

#endif // WAVEDYN_MLMODEL_REGRESSION_TREE_HH
