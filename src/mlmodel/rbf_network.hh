/**
 * @file
 * Radial basis function network with regression-tree-derived units
 * (paper Section 2.2, following Orr et al., "Combining Regression Trees
 * and Radial Basis Function Networks").
 *
 * f(x) = w0 + sum_i w_i * phi_i(x),
 * phi_i(x) = exp(-sum_d ((x_d - mu_id) / theta_id)^2)
 *
 * Every node of a regression tree grown on the training data contributes
 * one candidate unit: centre = node input mean, radius = node half-extent
 * (scaled, floored). Weights come from either ridge-regularised least
 * squares over all candidates or greedy forward selection minimising
 * generalised cross-validation (GCV), Orr's procedure.
 *
 * A fit reads the seed tree's candidate units and their response
 * columns from a FitDesign (mlmodel/fit_design.hh), which memoises
 * them per tree node across every fit on the same x; fit(x, y) is a
 * one-shot use of a fresh design.
 *
 * Forward-GCV keeps the orthogonalised candidates in one flat block,
 * a column of n rows per candidate. Every dot product is still one
 * sequential chain over the rows, from 0.0 in row order, as dot()
 * forms it. What changed is how the chains are scheduled:
 *
 *  - the projections onto the chosen column run four candidates side
 *    by side, each in its own accumulator;
 *  - the pass that deflates a candidate also sums its next squared
 *    norm and its product with the (already deflated) residual, from
 *    the values it has just stored, so the next selection reads them
 *    instead of two more passes. A candidate whose projection is
 *    exactly 0.0 is left untouched, as before, and only its product
 *    with the residual is summed again;
 *  - the chosen column's norm and residual product are the ones the
 *    selection compared (same column, same residual).
 *
 * Selection keeps its rules: norms under norm_tol are skipped, and the
 * first strictly larger error reduction wins. Each sum therefore sees
 * the same operands in the same order, and the fit is bit-identical to
 * the column-at-a-time loop.
 */

#ifndef WAVEDYN_MLMODEL_RBF_NETWORK_HH
#define WAVEDYN_MLMODEL_RBF_NETWORK_HH

#include <cstddef>
#include <vector>

#include "mlmodel/model.hh"
#include "mlmodel/regression_tree.hh"

namespace wavedyn
{

/** One Gaussian unit of the network. */
struct RbfUnit
{
    std::vector<double> center; //!< mu
    std::vector<double> radius; //!< theta (per-dimension)
    double weight = 0.0;        //!< w
};

/** Weight fitting strategies. */
enum class RbfFit
{
    RidgeAll,        //!< ridge least squares over every candidate unit
    ForwardGcv,      //!< greedy forward selection minimising GCV
};

/** RBF training options. */
struct RbfOptions
{
    TreeOptions tree;            //!< options for the seeding tree
    double radiusScale = 1.0;    //!< multiplies node half-extents
    double radiusFloor = 0.05;   //!< minimum theta (inputs are in [0,1])
    double ridgeLambda = 1e-4;   //!< ridge penalty
    RbfFit fit = RbfFit::ForwardGcv;
    std::size_t maxUnits = 48;   //!< cap on selected units
};

/**
 * RBF network regression model.
 */
class RbfNetwork : public RegressionModel
{
  public:
    explicit RbfNetwork(RbfOptions opts = {});

    void fit(const Matrix &x, const std::vector<double> &y) override;

    /**
     * Fit on a shared design (the network fit() fits on its x).
     * @throws std::invalid_argument when the design's radius scale or
     *         floor differ from this network's options.
     */
    void fit(FitDesign &design, const std::vector<double> &y);

    double predict(const std::vector<double> &input) const override;
    std::vector<double> predictMany(const Matrix &x) const override;
    std::string name() const override { return "rbf-network"; }
    void save(std::ostream &os) const override;

    /** Restore a network saved with save() (name token consumed). */
    static std::unique_ptr<RbfNetwork> load(std::istream &is);

    /** The units retained after fitting (excludes the bias). */
    const std::vector<RbfUnit> &units() const { return net; }

    /** Bias term w0. */
    double bias() const { return w0; }

    /** The seeding regression tree (valid after fit). */
    const RegressionTree &seedTree() const { return tree; }

    /** Gaussian response of one unit at an input. */
    static double response(const RbfUnit &unit,
                           const std::vector<double> &input);

    /**
     * response() from a raw row (no bounds metadata). Shared by the
     * scalar and batched prediction paths so both accumulate in the
     * same order and stay bit-identical.
     * @pre input points at unit.center.size() doubles.
     */
    static double responseAt(const RbfUnit &unit, const double *input);

  private:
    using Candidates = std::vector<const FitDesign::Node *>;
    void fitRidgeAll(const Candidates &cand, const std::vector<double> &y);
    void fitForwardGcv(const Candidates &cand,
                       const std::vector<double> &y);
    void addUnit(const FitDesign::Node &node, double weight);

    RbfOptions opts;
    RegressionTree tree;
    std::vector<RbfUnit> net;
    double w0 = 0.0;
};

} // namespace wavedyn

#endif // WAVEDYN_MLMODEL_RBF_NETWORK_HH
