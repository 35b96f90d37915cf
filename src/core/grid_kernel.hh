/**
 * @file
 * The exploration hot path: a bank of trained predictors compiled into
 * one kernel that scores design points lying on the training grid.
 *
 * An exploration trains one WaveletNeuralPredictor per (scenario x
 * domain), all on the same design points, so the regression trees
 * seeding their RBF coefficient networks grow many identical nodes —
 * and identical nodes become identical Gaussian units (same centre,
 * same radius). The kernel evaluates each *distinct* unit at most
 * once per configuration and feeds that response to every coefficient
 * model that uses it.
 *
 * Every swept configuration lies on the training grid, so the squared
 * scaled distance z^2 = ((x_d - mu_d) / theta_d)^2 of a unit along one
 * dimension takes one of levels(d) values; the kernel tabulates them
 * at compile time and the per-point work is a table lookup per
 * dimension, at most one exp per distinct unit, and the weighted sums.
 *
 * Bit-identity with WaveletNeuralPredictor::predictTrace: the tables
 * hold exactly the doubles the scalar path computes (same normalised
 * level, same subtract/divide/square), the per-unit sums run in
 * dimension order, each coefficient sums its units in the model's own
 * order starting from the bias, and the inverse transform and clamp
 * are the scalar path's. The only term ever left out is one whose
 * addition provably rounds back to the running sum (grid_kernel.cc,
 * negligible()). Coefficient models that are not RBF networks
 * (linear, global-mean) are evaluated through their own predict() on
 * the normalised level row, and non-paper-Haar transforms through the
 * predictor's inverse — slower, but the same bytes.
 */

#ifndef WAVEDYN_CORE_GRID_KERNEL_HH
#define WAVEDYN_CORE_GRID_KERNEL_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/predictor.hh"

namespace wavedyn
{

/** Per-thread working memory of GridKernel::evaluate(). */
class GridScratch
{
  public:
    /** Predictor @p p's trace from the last evaluate(). */
    const double *trace(std::size_t p) const
    {
        return traces.data() + traceOffset[p];
    }

  private:
    friend class GridKernel;

    /**
     * Running z^2 sums: row d holds every unit's sum over dimensions
     * 0..d at lastLevels, so a point that shares a level prefix with
     * the previous one (consecutive sweep points differ mostly in the
     * last dimension) only re-adds the rows after the prefix.
     */
    std::vector<double> partial;
    std::vector<std::size_t> lastLevels; //!< levels partial is valid for
    std::vector<double> response;    //!< per-unit exp(-sum)
    std::vector<double> coeffs;      //!< zeroed coefficient buffer
    std::vector<double> inverse;     //!< haarInverseInto ping-pong
    std::vector<double> traces;      //!< every predictor's trace
    std::vector<std::size_t> traceOffset;
    std::vector<double> norm;        //!< fallback models' input row
};

/**
 * A predictor bank compiled for on-grid evaluation.
 */
class GridKernel
{
  public:
    /**
     * Compile trained predictors that share one design space's
     * training grid (the first one's space is used).
     *
     * RBF models are copied in, but fallback models and non-paper-Haar
     * transforms are called through their predictors. So the
     * predictors must outlive the kernel, and a retrained bank needs a
     * new kernel.
     * @throws std::invalid_argument on an empty bank, a space without
     *         dimensions, or predictors over different grids.
     */
    explicit GridKernel(
        const std::vector<const WaveletNeuralPredictor *> &bank);

    /** Number of compiled predictors (bank order). */
    std::size_t size() const { return preds.size(); }

    /** Trace length of predictor @p p. */
    std::size_t traceLength(std::size_t p) const
    {
        return preds[p].length;
    }

    /** The design space the kernel's grid is taken from. */
    const DesignSpace &designSpace() const { return space; }

    /** RBF units over every coefficient model, counted per model. */
    std::size_t rawUnits() const { return unitsRaw; }

    /** Distinct RBF units: the most exp() calls one point costs. */
    std::size_t sharedUnits() const { return unitCount; }

    /** Working memory for evaluate(); use it with this kernel only. */
    GridScratch scratch() const;

    /**
     * Predict every compiled predictor's trace at the configuration
     * with per-dimension training-level indices @p levels
     * (DesignSpace::trainIndices / flatTrainIndices); read them back
     * with GridScratch::trace(). Bit-identical to predictTrace().
     */
    void evaluate(const std::vector<std::size_t> &levels,
                  GridScratch &ws) const;

  private:
    /** One coefficient model: bias + (unit, weight) terms. */
    struct Model
    {
        double bias = 0.0;
        std::size_t firstTerm = 0;
        std::size_t termCount = 0;
        const RegressionModel *fallback = nullptr; //!< non-RBF model
    };

    /** One compiled predictor. */
    struct Pred
    {
        const WaveletNeuralPredictor *source = nullptr;
        std::size_t length = 0;
        std::size_t firstModel = 0;
        std::vector<std::size_t> selected;
        bool paperHaar = true;
        bool clamp = true;
        double lo = 0.0;
        double hi = 0.0;
    };

    DesignSpace space;
    std::vector<std::size_t> levelCount;   //!< levels per dimension
    std::vector<std::size_t> levelBase;    //!< row offset of dim d
    std::vector<double> normLevel;         //!< [levelBase[d] + l]
    std::size_t unitCount = 0;
    std::size_t unitsRaw = 0;
    /** z^2 rows: [(levelBase[d] + l) * unitCount + unit]. */
    std::vector<double> zsq;
    std::vector<std::uint32_t> termUnit;
    std::vector<double> termWeight;
    std::vector<Model> models;
    std::vector<Pred> preds;
    std::size_t maxLength = 0;
};

} // namespace wavedyn

#endif // WAVEDYN_CORE_GRID_KERNEL_HH
