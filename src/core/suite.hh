/**
 * @file
 * Suite-level campaigns: run the paper's protocol over many benchmarks
 * and domains in one call and collect a structured report — the
 * programmatic equivalent of Figure 8, used by the campaign facade
 * (campaign/campaign.hh), the CLI tool and downstream automation.
 */

#ifndef WAVEDYN_CORE_SUITE_HH
#define WAVEDYN_CORE_SUITE_HH

#include <string>
#include <vector>

#include "core/experiment.hh"
#include "core/hooks.hh"

namespace wavedyn
{

/** Accuracy record for one (benchmark, domain) cell. */
struct SuiteCell
{
    std::string benchmark;
    Domain domain = Domain::Cpi;
    BoxplotSummary mse;              //!< MSE(%) distribution
    std::vector<double> msePerTest;  //!< raw per-configuration values
    std::vector<double> asymmetryQ;  //!< directional asymmetry Q1..Q3
};

/** Full campaign report. */
struct SuiteReport
{
    std::vector<SuiteCell> cells;

    /** Cell lookup; nullptr when absent. */
    const SuiteCell *find(const std::string &benchmark,
                          Domain domain) const;

    /** Median-of-medians per domain (the paper's "overall median"). */
    double overallMedian(Domain domain) const;
};

/**
 * Run the full campaign over every profile of @p scenarios (insertion
 * order): simulate each scenario's train/test sets once — all runs
 * flattened into one parallel batch — and evaluate a predictor per
 * (scenario x domain) cell. This is the primitive every other suite
 * entry point delegates to. @p scenarios must outlive the call only;
 * base.scenarios is ignored (the set passed here wins). Degenerate
 * sweep sizes throw before any simulation starts.
 *
 * @param scenarios the profiles to run, one report row each
 * @param base spec template; benchmark/scenarios fields are overwritten
 * @param opts predictor options shared by all cells
 * @param hooks optional progress events (core/hooks.hh)
 */
SuiteReport runSuite(const ScenarioSet &scenarios,
                     const ExperimentSpec &base,
                     const PredictorOptions &opts = {},
                     const CampaignHooks &hooks = {});

/**
 * runSuite over a named subset: each name is resolved in
 * base.scenarios (default: the paper twelve; generated
 * "gen/<family>/s<seed>/<i>" names are re-derived on the fly) and the
 * resolved profiles run in the given order. Unknown names throw
 * std::out_of_range, duplicates std::invalid_argument, before any
 * simulation starts. Delegates to the ScenarioSet primitive above.
 */
SuiteReport runSuite(const std::vector<std::string> &benchmarks,
                     const ExperimentSpec &base,
                     const PredictorOptions &opts = {},
                     const CampaignHooks &hooks = {});

/**
 * The simulation phases of runSuite on their own: validate every
 * benchmark's spec, sample the one plan they share (a plan depends
 * only on the seed and the sweep sizes), flatten all (configuration x
 * benchmark) runs into one scheduler batch, simulate in parallel, and
 * assemble one dataset per benchmark (aligned with @p benchmarks). This is the shared front
 * half of every campaign — the accuracy suite trains and evaluates on
 * the datasets, the exploration engine (dse/explorer.hh) trains its
 * per-scenario predictors on them. Fires hooks.scenarioDone per
 * assembled dataset and hooks.runProgress from the workers.
 */
std::vector<ExperimentData>
simulateSuiteDatasets(const std::vector<std::string> &benchmarks,
                      const ExperimentSpec &base,
                      const CampaignHooks &hooks = {});

} // namespace wavedyn

#endif // WAVEDYN_CORE_SUITE_HH
