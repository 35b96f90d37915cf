/**
 * @file
 * Evaluation metrics and scenario classification for the predictor
 * (Sections 4 and 5 of the paper):
 *
 *  - MSE(%) per test configuration and its boxplot summary (Figure 8);
 *  - threshold-based workload execution scenario classification and
 *    directional symmetry at the Q1/Q2/Q3 levels (Figures 12 and 13);
 *  - trace-pair diagnostics used by the tracking figures (14 and 17).
 */

#ifndef WAVEDYN_CORE_METRICS_HH
#define WAVEDYN_CORE_METRICS_HH

#include <vector>

#include "core/predictor.hh"
#include "util/stats.hh"

namespace wavedyn
{

/** Accuracy of one predictor over a test set. */
struct EvalResult
{
    std::vector<double> msePerTest; //!< MSE(%) per test configuration
    BoxplotSummary summary;         //!< boxplot over msePerTest
};

/**
 * Evaluate a trained predictor: per-test MSE(%) plus the boxplot
 * statistics the paper plots.
 */
EvalResult evaluatePredictor(const WaveletNeuralPredictor &pred,
                             const std::vector<DesignPoint> &test_points,
                             const std::vector<std::vector<double>>
                                 &actual_traces);

/**
 * evaluatePredictor from traces already predicted: per-test MSE(%) of
 * predicted[i] against actual[i], plus its boxplot.
 */
EvalResult evaluateTraces(const std::vector<std::vector<double>> &actual,
                          const std::vector<std::vector<double>>
                              &predicted);

/**
 * Directional asymmetry (1 - DS), percent, at the three quarter
 * thresholds of the actual trace (Figure 12's Q1/Q2/Q3).
 * @return {asym@Q1, asym@Q2, asym@Q3}.
 */
std::vector<double> directionalAsymmetryQ(
    const std::vector<double> &actual,
    const std::vector<double> &predicted);

/**
 * Average directional asymmetry per threshold across many test traces.
 */
std::vector<double> meanDirectionalAsymmetryQ(
    const std::vector<std::vector<double>> &actual,
    const std::vector<std::vector<double>> &predicted);

/**
 * Scenario check used by the DVM study: fraction of samples above a
 * fixed threshold (e.g. the DVM target) in a trace.
 */
double fractionAbove(const std::vector<double> &trace, double threshold);

/**
 * Agreement between actual and predicted on the question "does this
 * run ever exceed the threshold?" — the go/no-go decision of Figure 17.
 */
bool exceedanceAgreement(const std::vector<double> &actual,
                         const std::vector<double> &predicted,
                         double threshold);

} // namespace wavedyn

#endif // WAVEDYN_CORE_METRICS_HH
