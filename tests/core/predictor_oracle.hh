/**
 * @file
 * The frozen predictor-training oracle (tests/data/predictor_digests.txt):
 * the training cases it covers and how a trained predictor is reduced
 * to digests. Each line of the data file is `<case> <predictor> <trees>`:
 * 64-bit FNV-1a over the savePredictor bytes, and over every
 * coefficient RBF net's seed-tree record (RegressionTree::save) plus
 * the Figure 11 importance spokes printed at max_digits10. The file was
 * generated once, from the training code as it stood before the shared
 * fit design, and is never regenerated: a changed digest means training
 * computes something else.
 */

#ifndef WAVEDYN_TESTS_CORE_PREDICTOR_ORACLE_HH
#define WAVEDYN_TESTS_CORE_PREDICTOR_ORACLE_HH

#include <cstdint>
#include <fstream>
#include <iomanip>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "cache/key.hh"
#include "core/experiment.hh"
#include "core/serialize.hh"

namespace wavedyn
{
namespace predictor_oracle
{

constexpr std::uint64_t kBasis = 0xcbf29ce484222325ull;

/** Dataset shape: the campaigns' 60 LHS points, short cheap runs. */
inline ExperimentSpec
spec(const std::string &benchmark)
{
    ExperimentSpec s;
    s.benchmark = benchmark;
    s.trainPoints = 60;
    s.testPoints = 10;
    s.samples = 32;
    s.intervalInstrs = 64;
    s.seed = 11;
    return s;
}

inline const char *
fitName(RbfFit fit)
{
    return fit == RbfFit::ForwardGcv ? "gcv" : "ridge";
}

/** Both digests of one trained predictor, as written in the file. */
inline std::string
digests(const WaveletNeuralPredictor &p)
{
    std::ostringstream model;
    savePredictor(p, model);
    std::ostringstream trees;
    trees << std::setprecision(std::numeric_limits<double>::max_digits10);
    for (const auto &m : p.coefficientModels())
        if (const auto *rbf = dynamic_cast<const RbfNetwork *>(m.get()))
            rbf->seedTree().save(trees);
    for (double v : p.importanceByOrder())
        trees << v << " ";
    for (double v : p.importanceByFrequency())
        trees << v << " ";
    std::ostringstream out;
    out << std::hex << std::setw(16) << std::setfill('0')
        << fnv1a64(model.str(), kBasis) << " " << std::setw(16)
        << fnv1a64(trees.str(), kBasis);
    return out.str();
}

/** Every oracle case, case name -> "<predictor> <trees>" digests. */
inline std::map<std::string, std::string>
compute()
{
    std::map<std::string, std::string> out;
    for (const char *bench : {"gcc", "mcf", "swim"}) {
        ExperimentData data = generateExperimentData(spec(bench));
        for (Domain d : allDomains())
            for (RbfFit fit : {RbfFit::ForwardGcv, RbfFit::RidgeAll}) {
                PredictorOptions opts;
                opts.rbf.fit = fit;
                WaveletNeuralPredictor p(opts);
                p.train(data.space, data.trainPoints,
                        data.trainTraces.at(d));
                out[std::string(bench) + " " + domainSpecName(d) + " " +
                    fitName(fit)] = digests(p);
            }
        if (std::string(bench) != "gcc")
            continue;

        // Warm start: the frozen selection, refitted on 2 added points.
        const auto &traces = data.trainTraces.at(Domain::Cpi);
        WaveletNeuralPredictor warm;
        warm.train(data.space, data.trainPoints, traces);
        std::vector<DesignPoint> points = data.trainPoints;
        std::vector<std::vector<double>> grown = traces;
        for (std::size_t i = 0; i < 2; ++i) {
            points.push_back(data.testPoints[i]);
            grown.push_back(data.testTraces.at(Domain::Cpi)[i]);
        }
        warm.retrain(data.space, points, grown);
        out["gcc cpi gcv retrain+2"] = digests(warm);

        // 70 points (n > 64) where the first ten design points appear
        // twice, each time with another point's trace: tied inputs
        // with different responses.
        std::vector<DesignPoint> dupPoints = data.trainPoints;
        std::vector<std::vector<double>> dupTraces = traces;
        for (std::size_t i = 0; i < 10; ++i) {
            dupPoints.push_back(data.trainPoints[i]);
            dupTraces.push_back(traces[10 + i]);
        }
        for (RbfFit fit : {RbfFit::ForwardGcv, RbfFit::RidgeAll}) {
            PredictorOptions opts;
            opts.rbf.fit = fit;
            WaveletNeuralPredictor p(opts);
            p.train(data.space, dupPoints, dupTraces);
            out[std::string("gcc cpi ") + fitName(fit) + " duplicates70"] =
                digests(p);
        }
    }
    return out;
}

/** Path of the checked-in table. */
inline std::string
path()
{
    return std::string(WAVEDYN_TEST_DATA_DIR) + "/predictor_digests.txt";
}

/** The checked-in table: case name -> "<predictor> <trees>". */
inline std::map<std::string, std::string>
load()
{
    std::map<std::string, std::string> out;
    std::ifstream in(path());
    std::string line;
    while (std::getline(in, line)) {
        // The case name is every field but the last two.
        std::size_t trees = line.rfind(' ');
        std::size_t model = line.rfind(' ', trees - 1);
        if (trees == std::string::npos || model == std::string::npos)
            continue;
        out[line.substr(0, model)] = line.substr(model + 1);
    }
    return out;
}

} // namespace predictor_oracle
} // namespace wavedyn

#endif // WAVEDYN_TESTS_CORE_PREDICTOR_ORACLE_HH
