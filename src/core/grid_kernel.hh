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
 * dimension, one exp per *near* distinct unit, and the weighted sums.
 *
 * Bit-identity with WaveletNeuralPredictor::predictTrace: the tables
 * hold exactly the doubles the scalar path computes (same normalised
 * level, same subtract/divide/square), the per-unit sums run in
 * dimension order, each coefficient sums its units in the model's own
 * order starting from the bias, and the inverse transform and clamp
 * are the scalar path's. Coefficient models that are not RBF networks
 * (linear, global-mean) are evaluated through their own predict() on
 * the normalised level row, and non-paper-Haar transforms through the
 * predictor's inverse — slower, but the same bytes.
 *
 * Far units and the guard. A unit whose z^2 sum passes 64 responds
 * below 2^-92, so its term can round back to the running sum. The
 * kernel computes exp only for near units and gives far units a
 * response of 0.0, then runs each coefficient model's sum as one
 * branch-free chain, tracking the smallest |partial sum|. A per-model
 * guard, fixed at compile time from the model's largest weight,
 * proves from that minimum that every far term it dropped would have
 * rounded back (grid_kernel.cc has the induction). A model that fails
 * the guard — a huge far weight, a sum through zero, a non-finite
 * weight — is summed again term by term with exp on demand, the one
 * exact fallback. Scratch counters record the exp calls and fallbacks.
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

    /** exp() calls made by evaluate() on this scratch so far. */
    std::uint64_t expCalls() const { return exps; }

    /** Coefficient models evaluate() re-summed by the exact fallback. */
    std::uint64_t guardFallbacks() const { return fallbacks; }

  private:
    friend class GridKernel;

    /**
     * Running z^2 sums: row d + 1 holds every unit's sum over
     * dimensions 0..d at lastLevels (row 0 is zeros), so a point that
     * shares a level prefix with the previous one (consecutive sweep
     * points differ mostly in the last dimension) only re-adds the
     * rows after the prefix.
     */
    std::vector<double> partial;
    std::vector<std::size_t> lastLevels; //!< levels partial is valid for
    /** exp(-sum), 0.0 when far; one more slot, always 0.0. */
    std::vector<double> response;
    std::vector<std::uint32_t> nearUnits; //!< units to take exp of
    /**
     * Every predictor's coefficient vector, laid out as traces. Only
     * the selected slots are ever written; the rest stay 0.0.
     */
    std::vector<double> coeffs;
    std::vector<double> inverse;     //!< haarInverseInto ping-pong
    std::vector<double> traces;      //!< every predictor's trace
    std::vector<std::size_t> traceOffset;
    std::vector<double> norm;        //!< fallback models' input row
    std::uint64_t exps = 0;
    std::uint64_t fallbacks = 0;
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

    /** Distinct RBF units: the most eager exp() calls of one point. */
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
        std::size_t slot = 0; //!< its coefficient in GridScratch::coeffs
        const RegressionModel *fallback = nullptr; //!< non-RBF model
    };

    /** RBF models summed side by side: the width of a Group. */
    static constexpr std::size_t kLanes = 4;
    static constexpr std::uint32_t kNoModel = UINT32_MAX;

    /**
     * kLanes RBF models of similar term counts whose chains run side
     * by side, each in its model's own term order. Term t of lane j
     * sits at laneUnit/laneWeight[firstSlot + t * kLanes + j]. A lane
     * shorter than the group is padded with identity terms: weight
     * -0.0 on the response slot that is always 0.0 (-0.0 * 0.0 is
     * -0.0, and x + -0.0 is x for every double x, signed zeros and
     * NaNs included).
     */
    struct Group
    {
        std::size_t firstSlot = 0;
        std::size_t length = 0;
        std::uint32_t model[kLanes];  //!< kNoModel: an idle lane
        double bias[kLanes];
        /**
         * The guard per lane: the chain with far responses at 0.0 is
         * exact when every |partial sum| is at least this (+inf when
         * a weight is not finite, so the guard never holds).
         */
        double guardMin[kLanes];
    };

    /** Every group's chains, each checked by its guard. */
    void sumGroups(const double *dist, GridScratch &ws) const;

    /** Model @p m summed term by term: far terms skipped only when
     *  negligible(), exp computed on demand. */
    double exactSum(const Model &m, const double *dist,
                    GridScratch &ws) const;

    /** One compiled predictor. */
    struct Pred
    {
        const WaveletNeuralPredictor *source = nullptr;
        std::size_t length = 0;
        std::size_t offset = 0; //!< of its coefficients and trace
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
    std::vector<Group> groups;
    std::vector<std::uint32_t> laneUnit; //!< unitCount: the 0.0 slot
    std::vector<double> laneWeight;
    std::vector<std::uint32_t> fallbackModels; //!< non-RBF models
    std::vector<Pred> preds;
    std::size_t maxLength = 0;
};

} // namespace wavedyn

#endif // WAVEDYN_CORE_GRID_KERNEL_HH
