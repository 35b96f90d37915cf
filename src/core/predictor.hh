/**
 * @file
 * The paper's primary contribution: the hybrid neuro-wavelet predictor
 * of workload dynamics (Section 2.3, Figure 6).
 *
 * Training (per benchmark, per metric domain):
 *   1. each training run's trace is decomposed by a discrete wavelet
 *      transform;
 *   2. the k most important coefficients are selected (magnitude-based
 *      ranking aggregated across training runs — Figure 7 shows the
 *      ranking is stable, which selectByMeanMagnitude exploits);
 *   3. one regression model per selected coefficient is fitted from the
 *      normalised 9-dimensional design vector to the coefficient value.
 *      The paper uses RBF networks with regression-tree-derived units;
 *      linear and global-mean models are provided as ablation baselines.
 *
 * Prediction at an unexplored design point: predict the k coefficients,
 * zero the rest, inverse-transform — the result is the full predicted
 * dynamics trace.
 */

#ifndef WAVEDYN_CORE_PREDICTOR_HH
#define WAVEDYN_CORE_PREDICTOR_HH

#include <cstddef>
#include <memory>
#include <vector>

#include "sim/design_space.hh"
#include "mlmodel/linear_model.hh"
#include "mlmodel/rbf_network.hh"
#include "wavelet/dwt.hh"
#include "wavelet/selection.hh"

namespace wavedyn
{

/** Which regression family models each wavelet coefficient. */
enum class CoefficientModel
{
    Rbf,        //!< the paper's choice
    Linear,     //!< ablation baseline
    GlobalMean, //!< degenerate aggregate-only baseline
};

/** Predictor construction options. */
struct PredictorOptions
{
    std::size_t coefficients = 16; //!< k; the paper's sweet spot
    SelectionScheme selection = SelectionScheme::Magnitude;
    CoefficientModel model = CoefficientModel::Rbf;
    RbfOptions rbf;                //!< options for RBF coefficient nets
    bool paperHaar = true;         //!< paper-convention Haar transform
    MotherWavelet mother = MotherWavelet::Haar; //!< when !paperHaar

    /**
     * Clamp predicted traces to the value range seen in training
     * (plus a 10% margin). Workload metrics are physically bounded
     * (CPI >= 1/width, 0 <= AVF <= 1, power >= leakage); clamping
     * prevents rare RBF extrapolation blow-ups at design-space corners.
     */
    bool clampToTrainingRange = true;
};

/**
 * Workload-dynamics predictor across a microarchitecture design space.
 */
class WaveletNeuralPredictor
{
  public:
    explicit WaveletNeuralPredictor(PredictorOptions opts = {});

    /**
     * Train from simulated runs.
     * @param space the design space (supplies normalisation)
     * @param points training design points
     * @param traces one dynamics trace per point; all the same
     *        power-of-two length
     */
    void train(const DesignSpace &space,
               const std::vector<DesignPoint> &points,
               const std::vector<std::vector<double>> &traces);

    /**
     * Warm-start retraining for adaptive loops: like train(), but when
     * the predictor is already trained on traces of the same length it
     * keeps the existing wavelet-coefficient selection frozen and only
     * re-fits the per-coefficient regression models on the new (grown)
     * dataset. Selection stability across training sets is the paper's
     * Figure 7 result, so freezing it loses little accuracy while
     * keeping the model structure stable from round to round — and
     * skipping re-selection is the warm start the ROADMAP asks for.
     * Falls back to a full train() when untrained or the trace length
     * changed.
     */
    void retrain(const DesignSpace &space,
                 const std::vector<DesignPoint> &points,
                 const std::vector<std::vector<double>> &traces);

    /** Predict the full dynamics trace at a design point. */
    std::vector<double> predictTrace(const DesignPoint &point) const;

    /**
     * predictTrace for a batch of points on the training grid: a
     * one-predictor GridKernel (core/grid_kernel.hh), the exploration
     * hot path. Bit-identical to calling predictTrace per point.
     * @throws std::invalid_argument (DesignSpace::validationError
     *         text) when a point is off the training grid.
     */
    std::vector<std::vector<double>>
    predictTraces(const std::vector<DesignPoint> &points) const;

    /** Predict the wavelet coefficient vector (selected slots only). */
    std::vector<double> predictCoefficients(
        const DesignPoint &point) const;

    /** Indices of the modelled coefficients (selection order). */
    const std::vector<std::size_t> &selectedCoefficients() const
    {
        return selected;
    }

    /** Trace length the model was trained on. */
    std::size_t traceLength() const { return length; }

    bool trained() const { return length != 0; }

    /**
     * Parameter importance for Figure 11: split-order / split-frequency
     * spokes of the regression trees seeding the coefficient RBF nets,
     * averaged over coefficients weighted by coefficient importance.
     * Empty for non-RBF models.
     */
    std::vector<double> importanceByOrder() const;
    std::vector<double> importanceByFrequency() const;

    const PredictorOptions &options() const { return opts; }

    /** The design space captured at training time. @pre trained(). */
    const DesignSpace &designSpace() const { return space; }

    /** Per-coefficient models, selection order. @pre trained(). */
    const std::vector<std::unique_ptr<RegressionModel>> &
    coefficientModels() const
    {
        return models;
    }

    /** Value range of the training traces (lo, hi). */
    std::pair<double, double>
    trainingRange() const
    {
        return {trainLo, trainHi};
    }

    // Serialization (core/serialize.hh) rebuilds trained predictors.
    friend void savePredictor(const WaveletNeuralPredictor &,
                              std::ostream &);
    friend WaveletNeuralPredictor loadPredictor(std::istream &);
    // The grid kernel inverts non-paper-Haar coefficients through
    // fromCoefficients so both paths share one transform.
    friend class GridKernel;

  private:
    void trainImpl(const DesignSpace &space,
                   const std::vector<DesignPoint> &points,
                   const std::vector<std::vector<double>> &traces,
                   bool keepSelection);

    std::vector<double> toCoefficients(
        const std::vector<double> &trace) const;
    std::vector<double> fromCoefficients(
        std::vector<double> coeffs) const;

    std::unique_ptr<RegressionModel> makeModel() const;

    PredictorOptions opts;
    DesignSpace space; //!< copied at train time; owned by the model
    std::size_t length = 0;
    std::vector<std::size_t> selected;
    std::vector<double> selectionWeight; //!< mean |c| of each selected
    std::vector<std::unique_ptr<RegressionModel>> models;
    double trainLo = 0.0; //!< smallest training sample value
    double trainHi = 0.0; //!< largest training sample value
};

} // namespace wavedyn

#endif // WAVEDYN_CORE_PREDICTOR_HH
