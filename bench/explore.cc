/**
 * @file
 * Exploration throughput bench: how many design points per second the
 * trained predictors can score — the number that justifies
 * prediction-driven DSE over brute-force simulation (a single
 * cycle-level run takes milliseconds to seconds; a prediction must be
 * orders of magnitude cheaper to make sweeping 10^5-10^6
 * configurations routine).
 *
 * Reports the batched hot path (predictTraces, a one-predictor grid
 * kernel), the scalar per-point path for comparison, the explorer's
 * sweep shape — a 2-scenario x cpi/power/avf bank compiled into one
 * GridKernel, with its distinct/raw RBF unit counts — the sweep's
 * whole per-point scoring on that bank (kernel, objectives and the
 * online chunk front, scoreChunk), and a small
 * end-to-end adaptive exploration. `--json <path>` additionally
 * records the numbers machine-readably (core/report JSON conventions)
 * so BENCH_explore.json perf trajectories can accumulate.
 */

#include <chrono>
#include <cmath>

#include "bench/common.hh"
#include "campaign/report.hh"
#include "core/grid_kernel.hh"
#include "core/scenario.hh"
#include "dse/explorer.hh"
#include "exec/thread_pool.hh"

using namespace wavedyn;

namespace
{

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

} // namespace

int
main(int argc, char **argv)
{
    std::string jsonPath = benchJsonPath(argc, argv);
    auto ctx = BenchContext::init(
        "Design-space exploration — points predicted per second");

    // ---- Train one predictor bank cell (gcc x CPI) to benchmark the
    // sweep hot path in isolation.
    ExperimentSpec spec = ctx.spec("gcc");
    spec.domains = {Domain::Cpi};
    std::cout << "training benchmark predictor (train="
              << spec.trainPoints << ")...\n";
    auto data = generateExperimentData(spec);
    WaveletNeuralPredictor predictor;
    predictor.train(data.space, data.trainPoints,
                    data.trainTraces.at(Domain::Cpi));

    const std::size_t spaceSize = data.space.trainSpaceSize();
    const std::size_t sweepPoints = ctx.scale == Scale::Full
        ? spaceSize
        : ctx.scale == Scale::Quick ? std::min<std::size_t>(65536,
                                                            spaceSize)
                                    : std::min<std::size_t>(8192,
                                                            spaceSize);
    const std::size_t chunk = 1024;

    // Batched path: chunked streaming over the pool, one
    // predictTraces call per chunk.
    auto t0 = std::chrono::steady_clock::now();
    std::vector<double> chunkMeans((sweepPoints + chunk - 1) / chunk);
    parallelChunks(
        ThreadPool::global(), sweepPoints, chunk,
        [&](std::size_t c, std::size_t begin, std::size_t end) {
            std::vector<DesignPoint> pts;
            pts.reserve(end - begin);
            for (std::size_t i = begin; i < end; ++i)
                pts.push_back(data.space.pointFromFlatTrainIndex(i));
            auto traces = predictor.predictTraces(pts);
            double acc = 0.0;
            for (const auto &t : traces)
                for (double v : t)
                    acc += v;
            chunkMeans[c] = acc;
        });
    double batchedSec = secondsSince(t0);

    // Scalar path on a subsample, for the speedup ratio.
    const std::size_t scalarPoints = std::min<std::size_t>(sweepPoints,
                                                           4096);
    t0 = std::chrono::steady_clock::now();
    double scalarAcc = 0.0;
    for (std::size_t i = 0; i < scalarPoints; ++i) {
        auto trace = predictor.predictTrace(
            data.space.pointFromFlatTrainIndex(i));
        for (double v : trace)
            scalarAcc += v;
    }
    double scalarSec = secondsSince(t0);

    TextTable t("sweep throughput (one predictor, trace length " +
                fmt(predictor.traceLength()) + ")");
    t.header({"path", "points", "seconds", "points/sec"});
    t.row({"batched+parallel", fmt(sweepPoints), fmt(batchedSec, 3),
           fmt(batchedSec > 0.0
                   ? static_cast<double>(sweepPoints) / batchedSec
                   : 0.0,
               0)});
    t.row({"scalar serial", fmt(scalarPoints), fmt(scalarSec, 3),
           fmt(scalarSec > 0.0
                   ? static_cast<double>(scalarPoints) / scalarSec
                   : 0.0,
               0)});
    t.print(std::cout);

    // ---- Bank kernel: the explorer's sweep shape, 2 generated mixed
    // scenarios x cpi/power/avf trained on one shared plan, compiled
    // into one GridKernel and timed serially.
    ScenarioSet scenarios;
    auto names = scenarios.addGenerated(WorkloadFamily::Mixed, 7, 2);
    std::cout << "\ntraining bank predictors (2 scenarios x 3 "
                 "domains)...\n";
    std::vector<WaveletNeuralPredictor> bank;
    for (const auto &name : names) {
        ExperimentSpec bspec = ctx.spec(name);
        bspec.scenarios = &scenarios;
        bspec.domains = {Domain::Cpi, Domain::Power, Domain::Avf};
        auto bdata = generateExperimentData(bspec);
        for (Domain d : bspec.domains) {
            bank.emplace_back();
            bank.back().train(bdata.space, bdata.trainPoints,
                              bdata.trainTraces.at(d));
        }
    }
    std::vector<const WaveletNeuralPredictor *> bankRefs;
    for (const auto &p : bank)
        bankRefs.push_back(&p);
    GridKernel kernel(bankRefs);
    GridScratch ws = kernel.scratch();
    std::vector<std::size_t> levels;
    t0 = std::chrono::steady_clock::now();
    double bankAcc = 0.0;
    for (std::size_t i = 0; i < sweepPoints; ++i) {
        data.space.flatTrainIndices(i, levels);
        kernel.evaluate(levels, ws);
        bankAcc += ws.trace(kernel.size() - 1)[0];
    }
    double bankSec = secondsSince(t0);
    double bankRate =
        bankSec > 0.0 ? static_cast<double>(sweepPoints) / bankSec : 0.0;

    TextTable bt("bank kernel (" + fmt(kernel.size()) +
                 " predictors, one thread)");
    bt.header({"points", "seconds", "points/sec", "units distinct/raw"});
    bt.row({fmt(sweepPoints), fmt(bankSec, 3), fmt(bankRate, 0),
            fmt(kernel.sharedUnits()) + "/" + fmt(kernel.rawUnits())});
    bt.print(std::cout);
    if (!std::isfinite(bankAcc))
        std::cout << "warning: non-finite bank prediction\n";

    // ---- Scoring: the sweep's whole per-point path on the same bank
    // — kernel, objectives (cpi, energy, avf) and the online chunk
    // front — chunk by chunk as a worker runs it, timed serially.
    const std::vector<Domain> bankDomains = {Domain::Cpi, Domain::Power,
                                             Domain::Avf};
    const std::vector<Objective> bankObjectives = {
        Objective::Cpi, Objective::Energy, Objective::Avf};
    t0 = std::chrono::steady_clock::now();
    std::size_t chunkFronts = 0;
    for (std::size_t begin = 0; begin < sweepPoints; begin += chunk)
        chunkFronts += scoreChunk(kernel, bankDomains, bankObjectives,
                                  begin,
                                  std::min(begin + chunk, sweepPoints), 1)
                           .size();
    double scoreSec = secondsSince(t0);
    double scoreRate =
        scoreSec > 0.0 ? static_cast<double>(sweepPoints) / scoreSec : 0.0;

    TextTable st("scoring (kernel + objectives + chunk front, one "
                 "thread)");
    st.header({"points", "seconds", "points/sec", "us/point",
               "chunk-front points"});
    st.row({fmt(sweepPoints), fmt(scoreSec, 3), fmt(scoreRate, 0),
            fmt(scoreRate > 0.0 ? 1e6 / scoreRate : 0.0, 3),
            fmt(chunkFronts)});
    st.print(std::cout);

    // ---- End-to-end adaptive exploration, tiny budget.
    std::cout << "\nend-to-end exploration (2 scenarios, budget 2):\n";
    ExploreSpec espec;
    espec.base = ctx.spec("");
    espec.base.scenarios = &scenarios;
    espec.scenarios = names;
    espec.objectives = {Objective::Cpi, Objective::Energy};
    espec.budget = 2;
    espec.perRound = 2;
    espec.maxSweepPoints = sweepPoints;
    t0 = std::chrono::steady_clock::now();
    ExploreReport report = runExplore(espec);
    double exploreSec = secondsSince(t0);
    std::cout << renderExploreReport(report);
    std::cout << "\nexplore wall time: " << fmt(exploreSec, 2)
              << " s (" << ctx.jobs << " jobs)\n"
              << "Shape to check: batched sweep throughput is orders "
                 "of magnitude above\nsimulation speed — that gap is "
                 "the paper's case for prediction-driven DSE.\n";

    if (!jsonPath.empty()) {
        JsonValue doc = benchJsonHeader("explore", ctx);
        JsonValue sweep = JsonValue::object();
        sweep.set("points", std::uint64_t{sweepPoints});
        sweep.set("batched_seconds", batchedSec);
        sweep.set("batched_points_per_sec",
                  batchedSec > 0.0
                      ? static_cast<double>(sweepPoints) / batchedSec
                      : 0.0);
        sweep.set("scalar_points", std::uint64_t{scalarPoints});
        sweep.set("scalar_seconds", scalarSec);
        sweep.set("scalar_points_per_sec",
                  scalarSec > 0.0
                      ? static_cast<double>(scalarPoints) / scalarSec
                      : 0.0);
        doc.set("sweep", std::move(sweep));
        JsonValue bankRow = JsonValue::object();
        bankRow.set("predictors", std::uint64_t{kernel.size()});
        bankRow.set("points", std::uint64_t{sweepPoints});
        bankRow.set("seconds", bankSec);
        bankRow.set("points_per_sec", bankRate);
        bankRow.set("units_distinct", std::uint64_t{kernel.sharedUnits()});
        bankRow.set("units_raw", std::uint64_t{kernel.rawUnits()});
        doc.set("bank_kernel", std::move(bankRow));
        JsonValue scoring = JsonValue::object();
        scoring.set("points", std::uint64_t{sweepPoints});
        scoring.set("seconds", scoreSec);
        scoring.set("points_per_sec", scoreRate);
        scoring.set("chunk_front_points", std::uint64_t{chunkFronts});
        doc.set("scoring", std::move(scoring));
        JsonValue e2e = JsonValue::object();
        e2e.set("wall_seconds", exploreSec);
        e2e.set("report", exploreToJson(report));
        doc.set("explore", std::move(e2e));
        writeBenchJson(jsonPath, doc);
    }
    return 0;
}
