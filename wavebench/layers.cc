/**
 * @file
 * Per-layer measurements of a traced run. Each block times the
 * benchmark's own calls into one module's public functions, at the
 * campaign sizes of bench.hh, and records a "bench.layer.*" span
 * around them on the process-global tracer (their self time is what
 * the trace attributes to the layer). Timings are medians of
 * repetitions; counts are exact.
 *
 * This also records what bench_micro_cost times but never writes
 * down: Haar and Daubechies-4 transforms (wavelet.*), predictor
 * train/predict (core.*) and LHS planning (core.plan_ms).
 */

#include <cmath>
#include <filesystem>
#include <iostream>
#include <map>

#include "bench.hh"
#include "cache/key.hh"
#include "cache/store.hh"
#include "core/experiment.hh"
#include "core/predictor.hh"
#include "core/sampling.hh"
#include "core/scenario.hh"
#include "dse/objectives.hh"
#include "dse/pareto.hh"
#include "exec/scheduler.hh"
#include "linalg/matrix.hh"
#include "mlmodel/rbf_network.hh"
#include "power/model.hh"
#include "sim/batch.hh"
#include "sim/design_space.hh"
#include "sim/simulator.hh"
#include "telemetry/telemetry.hh"
#include "util/options.hh"
#include "util/rng.hh"
#include "wavelet/dwt.hh"
#include "wavelet/haar.hh"
#include "workload/generator.hh"
#include "workload/stream.hh"

using namespace wavedyn;

namespace wavebench
{
namespace
{

/** Median wall seconds of @p reps calls of @p fn. */
template <typename Fn>
double
medianSeconds(std::size_t reps, Fn &&fn)
{
    std::vector<double> t;
    for (std::size_t r = 0; r < reps; ++r) {
        Clock::time_point start = Clock::now();
        fn();
        t.push_back(secondsSince(start));
    }
    return median(t);
}

std::uint64_t
histogramSumUs(const MetricsSnapshot &snap, const std::string &name)
{
    for (const MetricsSnapshot::Histogram &h : snap.histograms)
        if (h.name == name)
            return h.sumUs;
    return 0;
}

/** @p n configurations drawn from the Table 2 training space. */
std::vector<SimConfig>
drawConfigs(const DesignSpace &space, std::size_t n, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<SimConfig> out;
    for (std::size_t i = 0; i < n; ++i)
        out.push_back(SimConfig::fromDesignPoint(
            space, space.pointFromFlatTrainIndex(
                       rng.below(space.trainSpaceSize()))));
    return out;
}

std::uint64_t
instructionsOf(const std::vector<SimResult> &results)
{
    std::uint64_t n = 0;
    for (const SimResult &r : results)
        n += r.totalInstructions;
    return n;
}

bool
finiteTraces(const std::vector<std::vector<double>> &traces)
{
    for (const auto &t : traces)
        for (double v : t)
            if (!std::isfinite(v))
                return false;
    return true;
}

std::string
spanName(const std::string &layer)
{
    return "bench.layer." + layer;
}

/** Decode throughput of the streaming cursor (mixed family). */
void
measureDecode(const Options &opts, MetricSet &out)
{
    ScopedSpan span(spanTracer(), spanName("workload.decode"), "bench");
    BenchmarkProfile profile =
        ScenarioGenerator(WorkloadFamily::Mixed, opts.seed).generate(0);
    const std::uint64_t n = std::uint64_t{1} << 20;
    InstructionStream stream(profile, n);
    std::uint64_t checksum = 0;
    double s = medianSeconds(5, [&] {
        InstructionStream::Cursor cursor(stream);
        std::uint64_t acc = 0;
        for (std::uint64_t i = 0; i < n; ++i) {
            MicroOp op = cursor.next();
            acc += op.pc + op.effAddr + op.dep1;
        }
        checksum = acc;
    });
    out.add("workload.decode_kinstr_per_s",
            static_cast<double>(n) / s / 1000.0, "kinstr/s");
    std::cout << "decode checksum " << checksum << "\n";
}

/**
 * Simulation kernels: 16-lane batches on every family plus gcc, a
 * 2-lane batch (explore's refine rounds), scalar simulate() and DVM.
 * Returns the 16 mixed-family results for the cache measurement.
 */
std::vector<SimResult>
measureSim(const Options &opts, const std::vector<SimConfig> &configs,
           MetricSet &out, Checks &checks)
{
    std::vector<std::pair<std::string, BenchmarkProfile>> profiles;
    for (WorkloadFamily f : allFamilies())
        profiles.emplace_back(familyName(f),
                              ScenarioGenerator(f, opts.seed).generate(0));
    profiles.emplace_back("gcc", benchmarkByName("gcc"));

    std::map<std::string, std::vector<SimResult>> batch16;
    for (const auto &entry : profiles) {
        ScopedSpan span(spanTracer(), spanName("sim.batch16." + entry.first),
                        "bench");
        std::vector<SimResult> results;
        double s = medianSeconds(3, [&] {
            results = simulateBatch(entry.second, configs, kSamples,
                                    kInterval);
        });
        out.add("sim.batch16_kinstr_per_s." + entry.first,
                static_cast<double>(instructionsOf(results)) / s / 1000.0,
                "kinstr/s");
        batch16[entry.first] = std::move(results);
    }
    const BenchmarkProfile mixed =
        ScenarioGenerator(WorkloadFamily::Mixed, opts.seed).generate(0);
    const BenchmarkProfile &gcc = profiles.back().second;
    {
        ScopedSpan span(spanTracer(), spanName("sim.batch2.mixed"), "bench");
        std::vector<SimConfig> two(configs.begin(), configs.begin() + 2);
        std::vector<SimResult> results;
        double s = medianSeconds(5, [&] {
            results = simulateBatch(mixed, two, kSamples, kInterval);
        });
        out.add("sim.batch2_kinstr_per_s.mixed",
                static_cast<double>(instructionsOf(results)) / s / 1000.0,
                "kinstr/s");
    }
    for (const auto &entry :
         {std::make_pair(std::string("mixed"), &mixed),
          std::make_pair(std::string("gcc"), &gcc)}) {
        ScopedSpan span(spanTracer(), spanName("sim.scalar." + entry.first),
                        "bench");
        SimResult r;
        double s = medianSeconds(3, [&] {
            r = simulate(*entry.second, configs[0], kSamples, kInterval);
        });
        out.add("sim.scalar_kinstr_per_s." + entry.first,
                static_cast<double>(r.totalInstructions) / s / 1000.0,
                "kinstr/s");
        checks.expect(encodeSimResult(r, kSimVersion) ==
                          encodeSimResult(batch16[entry.first][0],
                                          kSimVersion),
                      "scalar " + entry.first + " run equals its lane in "
                      "the 16-lane batch");
    }
    {
        ScopedSpan span(spanTracer(), spanName("sim.dvm.gcc"), "bench");
        DvmConfig dvm;
        dvm.enabled = true;
        dvm.threshold = 0.3;
        dvm.sampleCycles = 200;
        SimResult r;
        double s = medianSeconds(3, [&] {
            r = simulate(gcc, configs[0], kSamples, kInterval, dvm);
        });
        out.add("sim.dvm_kinstr_per_s.gcc",
                static_cast<double>(r.totalInstructions) / s / 1000.0,
                "kinstr/s");
    }
    return std::move(batch16["mixed"]);
}

/** PowerModel::watts per interval's activity counts. */
void
measurePower(const Options &opts, const SimConfig &config, MetricSet &out)
{
    ScopedSpan span(spanTracer(), spanName("power.watts"), "bench");
    PowerModel model(config);
    Rng rng(opts.seed);
    std::vector<ActivityCounts> acts(256);
    for (ActivityCounts &a : acts) {
        a.cycles = 40 + rng.below(80);
        a.fetched = rng.below(8 * a.cycles);
        a.dispatched = a.committed = kInterval;
        a.issuedIntAlu = rng.below(48);
        a.issuedMem = rng.below(24);
        a.issuedControl = rng.below(12);
        a.il1Accesses = a.fetched / 4;
        a.dl1Accesses = a.issuedMem;
        a.dl1Misses = rng.below(a.issuedMem + 1);
        a.l2Accesses = a.dl1Misses;
        a.bpredLookups = a.issuedControl;
        a.regReads = 2 * kInterval;
        a.regWrites = kInterval;
        a.iqOccupancySum = a.cycles * rng.below(32);
        a.robOccupancySum = a.cycles * rng.below(96);
    }
    const std::size_t n = 50000;
    double sink = 0.0;
    double s = medianSeconds(3, [&] {
        double acc = 0.0;
        for (std::size_t i = 0; i < n; ++i)
            acc += model.watts(acts[i & 255]);
        sink = acc;
    });
    out.add("power.watts_ns", s / static_cast<double>(n) * 1e9, "ns");
    std::cout << "power checksum " << sink << "\n";
}

/** One RunScheduler::run over a scenario's worth of runs, cache off. */
void
measureScheduler(const Options &opts, const DesignSpace &space,
                 MetricSet &out)
{
    BenchmarkProfile profile =
        ScenarioGenerator(WorkloadFamily::Mixed, opts.seed).generate(1);
    RunScheduler scheduler(opts.seed);
    scheduler.setCache(nullptr);
    for (const SimConfig &cfg :
         drawConfigs(space, kTrainPoints + kTestPoints, opts.seed + 1)) {
        RunTask task;
        task.benchmark = &profile;
        task.config = cfg;
        task.samples = kSamples;
        task.intervalInstrs = kInterval;
        scheduler.enqueue(task);
    }
    MetricsSnapshot before = metricsRegistry().snapshot();
    Clock::time_point start = Clock::now();
    {
        ScopedSpan span(spanTracer(), spanName("exec.scheduler"), "bench");
        scheduler.run();
    }
    double s = secondsSince(start);
    MetricsSnapshot after = metricsRegistry().snapshot();
    double busyS = static_cast<double>(histogramSumUs(after, "sim.run_us") -
                                       histogramSumUs(before, "sim.run_us")) /
                   1e6;
    out.add("exec.scheduler_s", s, "s");
    out.add("exec.pool_busy_frac",
            busyS / (s * static_cast<double>(currentJobs())), "ratio");
}

/**
 * ResultCache store / load and record decode, one call per sample.
 * 1024 distinct keys (the payloads cycle through 16 real results), so
 * the 99th percentile has ten samples beyond it.
 */
void
measureCache(const Options &opts, const DesignSpace &space,
             const std::vector<SimResult> &results, MetricSet &out,
             Checks &checks)
{
    ScopedSpan span(spanTracer(), spanName("cache"), "bench");
    const std::size_t n = 1024;
    BenchmarkProfile profile =
        ScenarioGenerator(WorkloadFamily::Mixed, opts.seed).generate(0);
    std::vector<CacheKey> keys;
    const std::size_t stride = space.trainSpaceSize() / n;
    for (std::size_t i = 0; i < n; ++i)
        keys.push_back(resultCacheKey(
            profile,
            SimConfig::fromDesignPoint(
                space, space.pointFromFlatTrainIndex(i * stride)),
            kSamples, kInterval, DvmConfig{}));

    std::string dir =
        (std::filesystem::path(opts.workDir) / "layer-cache").string();
    ResultCache cache(dir); // no in-memory layer: disk truth
    std::vector<double> storeUs, loadUs, decodeUs;
    std::size_t failures = 0;
    for (std::size_t i = 0; i < n; ++i) {
        Clock::time_point start = Clock::now();
        failures += cache.store(keys[i], results[i % results.size()]) ? 0 : 1;
        storeUs.push_back(secondsSince(start) * 1e6);
    }
    for (std::size_t i = 0; i < n; ++i) {
        Clock::time_point start = Clock::now();
        failures += cache.load(keys[i]).has_value() ? 0 : 1;
        loadUs.push_back(secondsSince(start) * 1e6);
    }
    const std::string record = encodeSimResult(results[0], kSimVersion);
    for (std::size_t i = 0; i < n; ++i) {
        Clock::time_point start = Clock::now();
        failures += decodeSimResult(record, kSimVersion).has_value() ? 0 : 1;
        decodeUs.push_back(secondsSince(start) * 1e6);
    }
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
    checks.expect(failures == 0, "cache layer: every store, load and "
                                 "decode succeeds");
    out.add("cache.store_us.p50", percentile(storeUs, 50), "us");
    out.add("cache.store_us.p99", percentile(storeUs, 99), "us");
    out.add("cache.load_us.p50", percentile(loadUs, 50), "us");
    out.add("cache.load_us.p99", percentile(loadUs, 99), "us");
    out.add("cache.decode_us.p50", percentile(decodeUs, 50), "us");
}

/** Per-call nanoseconds of @p fn over @p n calls, median of 3. */
template <typename Fn>
double
nsPerCall(std::size_t n, Fn &&fn)
{
    return medianSeconds(3, [&] {
               for (std::size_t i = 0; i < n; ++i)
                   fn();
           }) /
           static_cast<double>(n) * 1e9;
}

/**
 * Predictor stack on one scenario's dataset: planning (LHS), training,
 * evaluation, batched prediction, wavelet transforms, RBF fit and
 * predict, the ridge solve inside the fit, and the Pareto reduction of
 * one strided sweep.
 */
void
measurePredictor(const Options &opts, const DesignSpace &space,
                 MetricSet &out, Checks &checks)
{
    ScenarioSet set = ScenarioSet::paperCopy();
    BenchmarkProfile profile =
        ScenarioGenerator(WorkloadFamily::Mixed, opts.seed).generate(0);
    set.resolve(profile.name);
    ExperimentSpec spec;
    spec.benchmark = profile.name;
    spec.trainPoints = kTrainPoints;
    spec.testPoints = kTestPoints;
    spec.samples = kSamples;
    spec.intervalInstrs = kInterval;
    spec.seed = opts.seed;
    spec.scenarios = &set;

    {
        ScopedSpan span(spanTracer(), spanName("core.plan"), "bench");
        out.add("core.plan_ms",
                medianSeconds(5, [&] { planExperiment(spec); }) * 1000.0,
                "ms");
    }
    ExperimentData data = generateExperimentData(spec);
    const PredictorOptions popts;
    const auto &cpiTraces = data.trainTraces.at(Domain::Cpi);
    {
        ScopedSpan span(spanTracer(), spanName("core.train"), "bench");
        out.add("core.train_ms", medianSeconds(5, [&] {
                    WaveletNeuralPredictor p(popts);
                    p.train(data.space, data.trainPoints, cpiTraces);
                }) * 1000.0,
                "ms");
    }
    {
        ScopedSpan span(spanTracer(), spanName("core.evaluate"), "bench");
        out.add("core.evaluate_ms", medianSeconds(3, [&] {
                    trainAndEvaluateAll(data, allDomains(), popts);
                }) * 1000.0,
                "ms");
    }

    {
        ScopedSpan span(spanTracer(), spanName("wavelet"), "bench");
        const std::vector<double> &trace = cpiTraces.front();
        const std::vector<double> coeffs = haarForward(trace);
        double sink = 0.0;
        out.add("wavelet.forward_ns",
                nsPerCall(100000, [&] { sink += haarForward(trace)[0]; }),
                "ns");
        out.add("wavelet.inverse_ns",
                nsPerCall(100000, [&] { sink += haarInverse(coeffs)[0]; }),
                "ns");
        WaveletTransform db4(MotherWavelet::Daubechies4);
        out.add("wavelet.db4_forward_ns",
                nsPerCall(20000, [&] { sink += db4.forward(trace)[0]; }),
                "ns");
        checks.expect(std::isfinite(sink), "wavelet transforms are finite");
    }

    // The RBF network of one coefficient (the approximation slot), the
    // paper's model, at the training size the campaigns use.
    Matrix x = Matrix::fromRows(normalizeAll(data.space, data.trainPoints));
    std::vector<double> y;
    for (const auto &t : cpiTraces)
        y.push_back(haarForward(t)[0]);
    RbfNetwork net(popts.rbf);
    {
        ScopedSpan span(spanTracer(), spanName("mlmodel.rbf_fit"), "bench");
        out.add("mlmodel.rbf_fit_ms", medianSeconds(5, [&] {
                    RbfNetwork fresh(popts.rbf);
                    fresh.fit(x, y);
                }) * 1000.0,
                "ms");
        net.fit(x, y);
    }
    {
        ScopedSpan span(spanTracer(), spanName("linalg.solve"), "bench");
        const auto &units = net.units();
        Matrix phi(x.rows(), units.size() + 1);
        for (std::size_t r = 0; r < x.rows(); ++r) {
            std::vector<double> row(x.rowPtr(r), x.rowPtr(r) + x.cols());
            phi.at(r, 0) = 1.0;
            for (std::size_t c = 0; c < units.size(); ++c)
                phi.at(r, c + 1) = RbfNetwork::response(units[c], row);
        }
        bool ok = true;
        out.add("linalg.solve_us", nsPerCall(200, [&] {
                    ok = ridgeSolve(phi, y, popts.rbf.ridgeLambda).ok && ok;
                }) / 1000.0,
                "us");
        checks.expect(ok, "ridge solve at the RBF fit size succeeds");
    }

    // One strided sweep (every 4th configuration) through a trained
    // cpi/power/avf bank, in the explorer's 1024-point chunks.
    const std::size_t chunk = 1024, stride = 4;
    const std::size_t points = space.trainSpaceSize() / stride;
    std::map<Domain, WaveletNeuralPredictor> bank;
    for (Domain d : allDomains()) {
        WaveletNeuralPredictor p(popts);
        p.train(data.space, data.trainPoints, data.trainTraces.at(d));
        bank.emplace(d, std::move(p));
    }
    std::vector<std::vector<FrontPoint>> chunks;
    double predictS = 0.0;
    bool finite = true;
    {
        ScopedSpan span(spanTracer(), spanName("core.predict"), "bench");
        for (std::size_t begin = 0; begin < points; begin += chunk) {
            std::vector<DesignPoint> pts;
            for (std::size_t i = begin; i < std::min(points, begin + chunk);
                 ++i)
                pts.push_back(space.pointFromFlatTrainIndex(i * stride));
            std::map<Domain, std::vector<std::vector<double>>> traces;
            for (auto &entry : bank) {
                Clock::time_point start = Clock::now();
                traces[entry.first] = entry.second.predictTraces(pts);
                predictS += secondsSince(start);
                finite = finite && finiteTraces(traces[entry.first]);
            }
            std::vector<FrontPoint> scored;
            for (std::size_t i = 0; i < pts.size(); ++i) {
                std::map<Domain, std::vector<double>> one;
                for (auto &entry : traces)
                    one[entry.first] = std::move(entry.second[i]);
                FrontPoint fp;
                fp.point = pts[i];
                for (Objective o :
                     {Objective::Cpi, Objective::Energy, Objective::Avf}) {
                    fp.scores.push_back(objectiveScore(o, one));
                    fp.values.push_back(objectiveValue(o, one));
                }
                scored.push_back(std::move(fp));
            }
            chunks.push_back(std::move(scored));
        }
    }
    checks.expect(finite, "no NaN/Inf in predicted traces");
    out.add("core.predict_points_per_s",
            static_cast<double>(points * bank.size()) / predictS, "1/s");
    {
        ScopedSpan span(spanTracer(), spanName("mlmodel.rbf_predict"),
                        "bench");
        std::vector<DesignPoint> pts;
        for (std::size_t i = 0; i < chunk; ++i)
            pts.push_back(space.pointFromFlatTrainIndex(i * stride));
        Matrix xs = Matrix::fromRows(normalizeAll(space, pts));
        double s = medianSeconds(5, [&] { net.predictMany(xs); });
        out.add("mlmodel.rbf_predict_ns",
                s / static_cast<double>(chunk) * 1e9, "ns");
    }
    {
        ScopedSpan span(spanTracer(), spanName("dse.pareto"), "bench");
        std::vector<FrontPoint> merged;
        double s = medianSeconds(3, [&] {
            std::vector<std::vector<FrontPoint>> shards;
            for (const auto &c : chunks)
                shards.push_back(paretoFront(c));
            merged = mergeFronts(std::move(shards));
        });
        out.add("dse.pareto_ms", s * 1000.0, "ms");
        out.add("dse.frontier_size", static_cast<double>(merged.size()),
                "count");
    }
}

} // anonymous namespace

void
measureLayers(const Options &opts, MetricSet &perLayer, Checks &checks)
{
    const DesignSpace space = DesignSpace::paper();
    const std::vector<SimConfig> configs = drawConfigs(space, 16, opts.seed);
    measureDecode(opts, perLayer);
    std::vector<SimResult> mixed =
        measureSim(opts, configs, perLayer, checks);
    measurePower(opts, configs[0], perLayer);
    measureScheduler(opts, space, perLayer);
    measureCache(opts, space, mixed, perLayer, checks);
    measurePredictor(opts, space, perLayer, checks);
}

} // namespace wavebench
