#include "dse/explorer.hh"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "core/grid_kernel.hh"
#include "core/suite.hh"
#include "exec/thread_pool.hh"
#include "telemetry/telemetry.hh"
#include "util/table.hh"

namespace wavedyn
{

namespace
{

/** Trained predictors, bank[scenario][domain]. */
using PredictorBank = std::vector<std::map<Domain, WaveletNeuralPredictor>>;

/**
 * The bank compiled for on-grid scoring: predictor s * domains.size()
 * + i is scenario s's domains[i] predictor.
 */
GridKernel
compileBank(const PredictorBank &bank, const std::vector<Domain> &domains)
{
    std::vector<const WaveletNeuralPredictor *> preds;
    for (const auto &perScenario : bank)
        for (Domain d : domains)
            preds.push_back(&perScenario.at(d));
    return GridKernel(preds);
}

/**
 * Predict one configuration under every scenario and collapse the
 * per-scenario objective scores into one ChunkFront row: score =
 * scenario mean, value = the raw (un-negated) figure, uncertainty =
 * cross-scenario disagreement (relative spread averaged over
 * objectives). Fixed iteration order keeps every number independent
 * of worker count. @p scores is scratch, scenarios x objectives.
 */
void
scorePoint(const GridKernel &kernel, const std::vector<std::size_t> &levels,
           GridScratch &ws, const std::vector<Domain> &domains,
           const std::vector<Objective> &objectives,
           std::vector<double> &scores, double *row)
{
    kernel.evaluate(levels, ws);
    const std::size_t nobj = objectives.size();
    const std::size_t scen = kernel.size() / domains.size();
    for (std::size_t s = 0; s < scen; ++s) {
        DomainTraceRefs refs;
        for (std::size_t i = 0; i < domains.size(); ++i) {
            std::size_t p = s * domains.size() + i;
            refs[static_cast<std::size_t>(domains[i])] = {
                ws.trace(p), kernel.traceLength(p)};
        }
        objectiveScores(objectives.data(), nobj, refs,
                        scores.data() + s * nobj);
    }

    double disagree = 0.0;
    for (std::size_t k = 0; k < nobj; ++k) {
        double sum = 0.0;
        double lo = scores[k];
        double hi = lo;
        for (std::size_t s = 0; s < scen; ++s) {
            double v = scores[s * nobj + k];
            sum += v;
            lo = std::min(lo, v);
            hi = std::max(hi, v);
        }
        double mean = sum / static_cast<double>(scen);
        row[k] = mean;
        row[nobj + k] = maximised(objectives[k]) ? -mean : mean;
        disagree += (hi - lo) / (std::fabs(mean) + 1e-12);
    }
    row[2 * nobj] = disagree / static_cast<double>(nobj);
}

/** Registry counters of the kernel's unit sharing, added per sweep. */
void
countSweepUnits(const GridKernel &kernel)
{
    static const MetricId raw =
        metricsRegistry().counter("explore.sweep_units_raw");
    static const MetricId shared =
        metricsRegistry().counter("explore.sweep_units_shared");
    metricsRegistry().add(raw, kernel.rawUnits());
    metricsRegistry().add(shared, kernel.sharedUnits());
}

/** Registry counters of one chunk's kernel work, added per chunk. */
void
countChunkWork(const GridScratch &ws)
{
    static const MetricId exps =
        metricsRegistry().counter("explore.sweep_exp_calls");
    static const MetricId fallbacks =
        metricsRegistry().counter("explore.sweep_guard_fallbacks");
    metricsRegistry().add(exps, ws.expCalls());
    metricsRegistry().add(fallbacks, ws.guardFallbacks());
}

/**
 * One full sweep: stream sweepPoints strided configurations through
 * the compiled bank in chunks, reduce each chunk to its local front on
 * the worker (scoreChunk), merge the shards. O(space) work, O(front +
 * chunk) memory.
 */
std::vector<FrontPoint>
sweepFrontier(const ExploreSpec &spec, const GridKernel &kernel,
              const std::vector<Domain> &domains, std::size_t stride,
              std::size_t sweepPoints)
{
    countSweepUnits(kernel);
    std::size_t chunk = spec.chunk ? spec.chunk : 1024;
    std::size_t shardCount = (sweepPoints + chunk - 1) / chunk;
    std::vector<std::vector<FrontPoint>> shards(shardCount);
    {
        ScopedPhase phase("sweep");
        parallelChunks(
            ThreadPool::global(), sweepPoints, chunk,
            [&](std::size_t c, std::size_t begin, std::size_t end) {
                shards[c] = scoreChunk(kernel, domains, spec.objectives,
                                       begin, end, stride);
            });
    }
    ScopedPhase phase("pareto");
    return mergeFronts(std::move(shards));
}

/**
 * Add the distance-to-nearest-training-point term to the uncertainty
 * of each frontier point (normalised L2; far from every simulated
 * configuration = poorly supported prediction). Only frontier points
 * need it, so this runs post-merge on the handful that survived.
 */
void
addDistanceUncertainty(std::vector<FrontPoint> &front,
                       const DesignSpace &space,
                       const std::vector<DesignPoint> &trainPoints)
{
    std::vector<std::vector<double>> trainNorm;
    trainNorm.reserve(trainPoints.size());
    for (const auto &t : trainPoints)
        trainNorm.push_back(space.normalize(t));
    for (auto &fp : front) {
        std::vector<double> norm = space.normalize(fp.point);
        double best = -1.0;
        for (const auto &t : trainNorm) {
            double acc = 0.0;
            for (std::size_t d = 0; d < norm.size(); ++d) {
                double z = norm[d] - t[d];
                acc += z * z;
            }
            if (best < 0.0 || acc < best)
                best = acc;
        }
        fp.uncertainty += best > 0.0 ? std::sqrt(best) : 0.0;
    }
}

/**
 * Frontier points worth a real simulation: not already in the
 * training set, ranked by uncertainty (ties broken canonically so the
 * pick is deterministic), truncated to the round's budget.
 */
std::vector<FrontPoint>
selectForRefinement(const std::vector<FrontPoint> &front,
                    const std::set<DesignPoint> &alreadySimulated,
                    std::size_t k)
{
    std::vector<FrontPoint> candidates;
    for (const auto &fp : front)
        if (!alreadySimulated.count(fp.point))
            candidates.push_back(fp);
    std::sort(candidates.begin(), candidates.end(),
              [](const FrontPoint &a, const FrontPoint &b) {
                  if (a.uncertainty != b.uncertainty)
                      return a.uncertainty > b.uncertainty;
                  return canonicalLess(a, b);
              });
    if (candidates.size() > k)
        candidates.resize(k);
    return candidates;
}

/**
 * Simulate @p points under every scenario; actual[point][scenario] is
 * the per-domain trace map. One flattened batch on the pool.
 */
std::vector<std::vector<std::map<Domain, std::vector<double>>>>
simulatePoints(const ExploreSpec &spec, const DesignSpace &space,
               const std::vector<const BenchmarkProfile *> &profiles,
               const std::vector<DesignPoint> &points,
               const std::vector<Domain> &domains,
               const CampaignHooks &hooks)
{
    ScopedPhase phase("refine");
    RunScheduler scheduler(spec.base.seed);
    attachHooks(scheduler, hooks);
    for (const auto &p : points) {
        for (const BenchmarkProfile *profile : profiles) {
            RunTask task;
            task.benchmark = profile;
            task.config = SimConfig::fromDesignPoint(space, p);
            task.samples = spec.base.samples;
            task.intervalInstrs = spec.base.intervalInstrs;
            task.dvm = spec.base.dvm;
            scheduler.enqueue(std::move(task));
        }
    }
    scheduler.run();

    std::vector<std::vector<std::map<Domain, std::vector<double>>>>
        actual(points.size());
    std::size_t task = 0;
    for (std::size_t i = 0; i < points.size(); ++i) {
        actual[i].resize(profiles.size());
        for (std::size_t s = 0; s < profiles.size(); ++s, ++task) {
            // One pass over the run's interval record for all domains.
            SimResult r = scheduler.takeResult(task);
            auto traces = r.traces(domains);
            for (std::size_t d = 0; d < domains.size(); ++d)
                actual[i][s][domains[d]] = std::move(traces[d]);
        }
    }
    return actual;
}

/** Scenario-mean minimised score of one simulated point. */
double
simulatedScore(Objective o,
               const std::vector<std::map<Domain, std::vector<double>>>
                   &perScenario)
{
    double sum = 0.0;
    for (const auto &traces : perScenario)
        sum += objectiveScore(o, traces);
    return sum / static_cast<double>(perScenario.size());
}

/**
 * Mean absolute relative error (%) per objective between predicted
 * scores and the same scores recomputed from real simulations.
 */
std::vector<double>
predictionError(const std::vector<Objective> &objectives,
                const std::vector<std::vector<double>> &predicted,
                const std::vector<
                    std::vector<std::map<Domain, std::vector<double>>>>
                    &actual)
{
    assert(predicted.size() == actual.size());
    std::vector<double> err(objectives.size(), 0.0);
    if (predicted.empty())
        return err;
    for (std::size_t k = 0; k < objectives.size(); ++k) {
        double acc = 0.0;
        for (std::size_t i = 0; i < predicted.size(); ++i) {
            double act = simulatedScore(objectives[k], actual[i]);
            acc += std::fabs(predicted[i][k] - act) /
                   std::max(std::fabs(act), 1e-9);
        }
        err[k] = 100.0 * acc / static_cast<double>(predicted.size());
    }
    return err;
}

/** (Re)fit every (scenario x domain) predictor, one pool task each. */
void
retrainBank(PredictorBank &bank, const DesignSpace &space,
            const std::vector<DesignPoint> &trainPoints,
            const std::vector<std::map<Domain,
                                       std::vector<std::vector<double>>>>
                &trainTraces)
{
    struct CellRef
    {
        std::size_t scenario;
        Domain domain;
    };
    std::vector<CellRef> cells;
    for (std::size_t s = 0; s < bank.size(); ++s)
        for (const auto &entry : bank[s])
            cells.push_back({s, entry.first});
    ScopedPhase phase("train");
    parallelFor(ThreadPool::global(), cells.size(), [&](std::size_t i) {
        const CellRef &c = cells[i];
        bank[c.scenario].at(c.domain).retrain(
            space, trainPoints, trainTraces[c.scenario].at(c.domain));
    });
}

} // anonymous namespace

std::vector<FrontPoint>
scoreChunk(const GridKernel &kernel, const std::vector<Domain> &domains,
           const std::vector<Objective> &objectives, std::size_t begin,
           std::size_t end, std::size_t stride)
{
    // Flat score rows, reduced online; FrontPoints and design points
    // are built only for the rows that survive.
    const DesignSpace &space = kernel.designSpace();
    GridScratch ws = kernel.scratch();
    std::vector<std::size_t> levels;
    std::vector<double> scores(kernel.size() / domains.size() *
                               objectives.size());
    ChunkFront front(objectives.size(), end - begin);
    for (std::size_t i = begin; i < end; ++i) {
        space.flatTrainIndices(i * stride, levels);
        scorePoint(kernel, levels, ws, domains, objectives, scores,
                   front.nextRow());
        front.add(i * stride);
    }
    countChunkWork(ws);
    return front.front([&](std::size_t flat) {
        return space.pointFromFlatTrainIndex(flat);
    });
}

ExploreReport
runExplore(const ExploreSpec &spec, const CampaignHooks &hooks)
{
    if (spec.scenarios.empty())
        throw std::invalid_argument(
            "ExploreSpec needs at least one scenario");
    if (spec.objectives.empty())
        throw std::invalid_argument(
            "ExploreSpec needs at least one objective");
    if (spec.budget > 0 && spec.perRound == 0)
        throw std::invalid_argument(
            "ExploreSpec.perRound must be non-zero when budget > 0");

    std::vector<Domain> domains = domainsFor(spec.objectives);
    ExperimentSpec base = spec.base;
    base.domains = domains;

    auto phase = [&](const std::string &msg) {
        if (hooks.phase)
            hooks.phase(msg);
    };

    // ---- Initial campaign: one flattened batch over all scenarios.
    phase("simulating initial campaign: " +
          std::to_string(spec.scenarios.size()) + " scenarios x " +
          std::to_string(base.trainPoints + base.testPoints) + " runs");
    std::vector<ExperimentData> datasets =
        simulateSuiteDatasets(spec.scenarios, base, hooks);

    DesignSpace space = std::move(datasets[0].space);
    std::vector<DesignPoint> trainPoints =
        std::move(datasets[0].trainPoints);
    std::vector<DesignPoint> testPoints =
        std::move(datasets[0].testPoints);
    std::vector<std::map<Domain, std::vector<std::vector<double>>>>
        trainTraces(datasets.size());
    std::vector<std::map<Domain, std::vector<std::vector<double>>>>
        testTraces(datasets.size());
    for (std::size_t s = 0; s < datasets.size(); ++s) {
        // Every scenario shares one sampling plan (the plan depends
        // only on the seed), so the training set is one shared point
        // list with per-scenario traces. (Index 0's points were moved
        // out above, so only later scenarios can be compared.)
        assert(s == 0 || datasets[s].trainPoints == trainPoints);
        trainTraces[s] = std::move(datasets[s].trainTraces);
        testTraces[s] = std::move(datasets[s].testTraces);
    }
    datasets.clear();

    // ---- Train the predictor bank, one cell per (scenario, domain).
    phase("training " +
          std::to_string(spec.scenarios.size() * domains.size()) +
          " predictors (" + std::to_string(trainPoints.size()) +
          " training points)");
    PredictorBank bank(spec.scenarios.size());
    for (auto &perScenario : bank)
        for (Domain d : domains)
            perScenario.emplace(d, WaveletNeuralPredictor(spec.predictor));
    retrainBank(bank, space, trainPoints, trainTraces);

    // ---- Report scaffolding.
    ExploreReport report;
    report.objectives = spec.objectives;
    report.paramNames = space.names();
    report.scenarioCount = spec.scenarios.size();
    report.spaceSize = space.trainSpaceSize();
    report.sweepStride =
        spec.maxSweepPoints == 0 || spec.maxSweepPoints >= report.spaceSize
            ? 1
            : (report.spaceSize + spec.maxSweepPoints - 1) /
                  spec.maxSweepPoints;
    report.sweepPoints =
        (report.spaceSize + report.sweepStride - 1) / report.sweepStride;
    report.initialTrainPoints = trainPoints.size();

    const ScenarioSet &scenarioSet = scenariosOf(base);
    std::vector<const BenchmarkProfile *> profiles;
    profiles.reserve(spec.scenarios.size());
    for (const auto &name : spec.scenarios)
        profiles.push_back(&scenarioSet.at(name));

    // ---- Round 0: held-out baseline error on the test points the
    // initial campaign already simulated — the pre-refinement yard
    // stick the later rounds are compared against.
    GridKernel kernel = compileBank(bank, domains);
    {
        // Score exactly as the sweep does (one rule for the whole
        // error table): a row's scores are the cross-scenario means.
        const std::size_t nobj = spec.objectives.size();
        GridScratch ws = kernel.scratch();
        std::vector<double> scores(bank.size() * nobj);
        std::vector<double> row(2 * nobj + 1);
        std::vector<std::vector<double>> predicted;
        predicted.reserve(testPoints.size());
        for (const DesignPoint &p : testPoints) {
            scorePoint(kernel, space.trainIndices(p), ws, domains,
                       spec.objectives, scores, row.data());
            predicted.emplace_back(row.begin(), row.begin() + nobj);
        }
        std::vector<std::vector<std::map<Domain, std::vector<double>>>>
            actual(testPoints.size());
        for (std::size_t i = 0; i < testPoints.size(); ++i) {
            actual[i].resize(bank.size());
            for (std::size_t s = 0; s < bank.size(); ++s)
                for (Domain d : domains)
                    actual[i][s][d] = testTraces[s].at(d)[i];
        }
        ExploreRoundStats baseline;
        baseline.round = 0;
        baseline.simulated = testPoints.size();
        baseline.meanAbsErrPct =
            predictionError(spec.objectives, predicted, actual);
        report.rounds.push_back(std::move(baseline));
    }

    // ---- Adaptive refinement loop. The held-out test points count
    // as simulated too: their traces are already in hand (re-running
    // them would burn budget on bit-identical results, simulate()
    // being pure), and leaving them out of the training set keeps the
    // round-0 baseline comparable across rounds.
    std::set<DesignPoint> simulated(trainPoints.begin(),
                                    trainPoints.end());
    simulated.insert(testPoints.begin(), testPoints.end());
    std::size_t budgetLeft = spec.budget;
    std::size_t round = 1;
    std::vector<FrontPoint> finalFrontier;
    bool haveFinalFrontier = false;
    while (budgetLeft > 0) {
        phase("round " + std::to_string(round) + ": sweeping " +
              std::to_string(report.sweepPoints) +
              " configurations through the predictors");
        std::vector<FrontPoint> front =
            sweepFrontier(spec, kernel, domains, report.sweepStride,
                          report.sweepPoints);
        addDistanceUncertainty(front, space, trainPoints);

        std::size_t k = std::min(spec.perRound, budgetLeft);
        std::vector<FrontPoint> chosen =
            selectForRefinement(front, simulated, k);
        if (chosen.empty()) {
            // Nothing left to refine; the predictors are unchanged
            // since this round's sweep, so its frontier IS the final
            // one — re-sweeping would recompute it byte for byte.
            phase("round " + std::to_string(round) +
                  ": frontier fully simulated; stopping early");
            finalFrontier = std::move(front);
            haveFinalFrontier = true;
            break;
        }

        phase("round " + std::to_string(round) + ": simulating " +
              std::to_string(chosen.size()) +
              " frontier points x " +
              std::to_string(spec.scenarios.size()) + " scenarios");
        std::vector<DesignPoint> pts;
        std::vector<std::vector<double>> predicted;
        for (const auto &fp : chosen) {
            pts.push_back(fp.point);
            predicted.push_back(fp.scores);
        }
        auto actual = simulatePoints(spec, space, profiles, pts,
                                     domains, hooks);

        ExploreRoundStats stats;
        stats.round = round;
        stats.frontSize = front.size();
        stats.simulated = pts.size();
        stats.meanAbsErrPct =
            predictionError(spec.objectives, predicted, actual);
        report.rounds.push_back(std::move(stats));

        // Fold the fresh runs into the training set and warm-start
        // retrain every cell (frozen coefficient selection).
        for (std::size_t i = 0; i < pts.size(); ++i) {
            simulated.insert(pts[i]);
            trainPoints.push_back(std::move(pts[i]));
            for (std::size_t s = 0; s < bank.size(); ++s)
                for (Domain d : domains)
                    trainTraces[s][d].push_back(
                        std::move(actual[i][s][d]));
        }
        phase("round " + std::to_string(round) +
              ": warm-start retraining on " +
              std::to_string(trainPoints.size()) + " points");
        retrainBank(bank, space, trainPoints, trainTraces);
        kernel = compileBank(bank, domains);

        budgetLeft -= stats.simulated;
        ++round;
    }

    // ---- Final frontier through the refined predictors.
    if (!haveFinalFrontier) {
        phase("final sweep: " + std::to_string(report.sweepPoints) +
              " configurations");
        finalFrontier = sweepFrontier(spec, kernel, domains,
                                      report.sweepStride,
                                      report.sweepPoints);
        addDistanceUncertainty(finalFrontier, space, trainPoints);
    }
    report.frontier = std::move(finalFrontier);
    report.finalTrainPoints = trainPoints.size();
    return report;
}

std::string
renderExploreReport(const ExploreReport &report)
{
    std::ostringstream os;
    os << "== design-space exploration ==\n";
    std::string objs;
    for (Objective o : report.objectives)
        objs += (objs.empty() ? "" : ", ") + objectiveName(o);
    os << "objectives:  " << objs << "\n"
       << "scenarios:   " << report.scenarioCount << "\n"
       << "space:       " << report.spaceSize << " configurations ("
       << report.paramNames.size() << " parameters)\n"
       << "sweep:       " << report.sweepPoints
       << " configurations per round (stride " << report.sweepStride
       << ")\n"
       << "train set:   " << report.initialTrainPoints
       << " initial -> " << report.finalTrainPoints
       << " after refinement\n\n";

    TextTable rounds("predicted-vs-simulated error by round "
                     "(mean |err| %)");
    std::vector<std::string> head = {"round", "front", "sims"};
    for (Objective o : report.objectives)
        head.push_back(objectiveName(o));
    rounds.header(head);
    for (const auto &r : report.rounds) {
        std::vector<std::string> row = {
            r.round == 0 ? "0 (held-out)" : fmt(r.round),
            r.round == 0 ? "-" : fmt(r.frontSize), fmt(r.simulated)};
        for (double e : r.meanAbsErrPct)
            row.push_back(fmt(e, 2));
        rounds.row(row);
    }
    rounds.print(os);
    os << "\n";

    TextTable front("Pareto frontier (" +
                    std::to_string(report.frontier.size()) +
                    " non-dominated configurations)");
    std::vector<std::string> fhead;
    for (Objective o : report.objectives)
        fhead.push_back(objectiveName(o));
    fhead.push_back("uncert");
    for (const auto &p : report.paramNames)
        fhead.push_back(p);
    front.header(fhead);
    for (const auto &fp : report.frontier) {
        std::vector<std::string> row;
        for (double v : fp.values)
            row.push_back(fmt(v, 4));
        row.push_back(fmt(fp.uncertainty, 3));
        for (double v : fp.point)
            row.push_back(fmtParam(v));
        front.row(row);
    }
    front.print(os);
    return os.str();
}

} // namespace wavedyn
