/**
 * @file
 * The three workloads as campaigns through runCampaign(), their
 * set-up, the timed loop and every correctness check.
 */

#include <fcntl.h>
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>

#include "bench.hh"
#include "cache/key.hh"
#include "cache/store.hh"
#include "campaign/campaign.hh"
#include "campaign/report.hh"
#include "core/experiment.hh"
#include "core/scenario.hh"
#include "sim/simulator.hh"
#include "telemetry/telemetry.hh"
#include "util/atomic_file.hh"
#include "util/json.hh"
#include "workload/generator.hh"
#include "workload/profile.hh"

using namespace wavedyn;

namespace wavebench
{

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "suite-cold", "suite-warm", "explore-sweep"};
    return names;
}

namespace
{

constexpr std::size_t kExploreScenarios = 2;

/** Set-up repetitions; setup_s is their median. */
constexpr std::size_t kSetupReps = 3;
/** Fewest timed campaigns per run, whatever --seconds says. */
constexpr std::size_t kMinCampaigns = 3;
/** Cap on campaigns of a traced run (half of them traced). */
constexpr std::size_t kMaxTracedRunCampaigns = 20;
/** Experiment and scenario seeds of the accuracy campaigns (those of
 *  examples/campaign_*.json). */
constexpr std::uint64_t kReferenceSeed = 24301;
constexpr std::uint64_t kReferenceScenarioSeed = 7;
/** In-memory LRU bound wavedyn_cli gives every campaign's cache. */
constexpr std::size_t kCliMemoryEntries = 256;

ExperimentSpec
benchExperiment(std::uint64_t seed)
{
    ExperimentSpec e;
    e.trainPoints = kTrainPoints;
    e.testPoints = kTestPoints;
    e.samples = kSamples;
    e.intervalInstrs = kInterval;
    e.seed = seed;
    return e;
}

/** The paper-twelve accuracy suite (Figure 8 protocol). */
CampaignSpec
suiteSpec(std::uint64_t seed)
{
    CampaignSpec spec;
    spec.kind = CampaignKind::Suite;
    spec.experiment = benchExperiment(seed);
    spec.scenarios.names = benchmarkNames();
    return spec;
}

/** Explore over generated mixed scenarios, full-space sweep. */
CampaignSpec
exploreSpec(std::uint64_t seed, std::uint64_t scenarioSeed)
{
    CampaignSpec spec;
    spec.kind = CampaignKind::Explore;
    spec.experiment = benchExperiment(seed);
    spec.scenarios.family = WorkloadFamily::Mixed;
    spec.scenarios.seed = scenarioSeed;
    spec.scenarios.count = kExploreScenarios;
    spec.objectives = {Objective::Cpi, Objective::Energy, Objective::Avf};
    spec.budget = 2;
    spec.perRound = 2;
    spec.chunk = 1024;
    spec.maxSweepPoints = 0;
    return spec;
}

/**
 * The same scenarios and sizes as the other kind: the suite companion
 * of an explore spec measures per-domain accuracy, the explore
 * companion of a suite spec measures round-0 objective error (one
 * predicted configuration swept, no refinement).
 */
CampaignSpec
companionSpec(const CampaignSpec &spec)
{
    CampaignSpec c = spec;
    if (spec.kind == CampaignKind::Explore) {
        c.kind = CampaignKind::Suite;
        return c;
    }
    c.kind = CampaignKind::Explore;
    c.objectives = {Objective::Cpi, Objective::Energy, Objective::Avf};
    c.budget = 0;
    c.maxSweepPoints = 1;
    return c;
}

/** Warm-up campaign of set-up: the spec cut to its first scenario. */
CampaignSpec
warmupSpec(const CampaignSpec &spec)
{
    CampaignSpec w =
        subsetForScenarios(spec, {spec.scenarios.scenarioNames().front()});
    if (w.kind == CampaignKind::Explore) {
        w.budget = 0;
        w.maxSweepPoints = 4096;
    }
    return w;
}

std::string
digestOf(const std::string &bytes)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(
                      fnv1a64(bytes, 0xcbf29ce484222325ull)));
    return buf;
}

std::shared_ptr<ResultCache>
openCache(const std::string &dir)
{
    auto cache = std::make_shared<ResultCache>(dir);
    cache->setMemoryCapacity(kCliMemoryEntries);
    return cache;
}

/** Counter delta of one registry snapshot pair. */
std::uint64_t
delta(const MetricsSnapshot &before, const MetricsSnapshot &after,
      const std::string &name)
{
    return after.counterOr(name) - before.counterOr(name);
}

/** One campaign: run + text render, timed together. */
struct CampaignRun
{
    CampaignResult result;
    std::string report;
    double seconds = 0.0;
    double renderSeconds = 0.0;
    MetricsSnapshot before;
    MetricsSnapshot after;

    std::uint64_t runs() const
    {
        return delta(before, after, "scheduler.runs");
    }
    std::uint64_t computed() const
    {
        return delta(before, after, "scheduler.computed");
    }
};

CampaignRun
runOnce(const CampaignSpec &spec, std::shared_ptr<ResultCache> cache,
        bool traced = false)
{
    CampaignRun run;
    run.before = metricsRegistry().snapshot();
    setActiveResultCache(std::move(cache));
    setTracingEnabled(traced);
    Clock::time_point start = Clock::now();
    {
        ScopedSpan span(spanTracer(), "bench.campaign", "bench");
        run.result = runCampaign(spec);
        Clock::time_point renderStart = Clock::now();
        ScopedSpan render(spanTracer(), "bench.campaign.render", "bench");
        run.report = renderReport(run.result, ReportFormat::Text);
        run.renderSeconds = secondsSince(renderStart);
    }
    run.seconds = secondsSince(start);
    setTracingEnabled(false);
    setActiveResultCache(nullptr);
    run.after = metricsRegistry().snapshot();
    return run;
}

/**
 * Restart the kernel's peak-RSS counter (VmHWM) so the next reading
 * covers only what follows. Where the kernel refuses, the reading
 * stays the process-lifetime peak.
 */
void
resetPeakRss()
{
    int fd = ::open("/proc/self/clear_refs", O_WRONLY | O_CLOEXEC);
    if (fd < 0)
        return;
    if (::write(fd, "5", 1) != 1)
        std::cerr << "wavebench: cannot reset the peak-RSS counter\n";
    ::close(fd);
}

/** Peak resident set size in MiB: VmHWM, else the process peak. */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0; // kB
    struct rusage ru {};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // Linux: KiB
}

bool
allFinite(const JsonValue &v)
{
    if (v.isNumber())
        return std::isfinite(v.asDouble());
    if (v.isArray()) {
        for (std::size_t i = 0; i < v.size(); ++i)
            if (!allFinite(v.at(i)))
                return false;
    }
    if (v.isObject()) {
        for (const auto &member : v.members())
            if (!allFinite(member.second))
                return false;
    }
    return true;
}

/** Totals over every entry of a cache directory. */
struct CacheTotals
{
    std::uint64_t entries = 0;
    std::uint64_t undecodable = 0;
    std::uint64_t instructions = 0;
    std::uint64_t cycles = 0;
    std::uint64_t offShape = 0; //!< entries not samples x interval long
};

CacheTotals
sumCache(const std::string &dir)
{
    CacheTotals t;
    ResultCache cache(dir);
    for (const CacheEntryInfo &info : cache.scan()) {
        std::ifstream in(info.path, std::ios::binary);
        std::ostringstream bytes;
        bytes << in.rdbuf();
        std::optional<SimResult> r =
            decodeSimResult(bytes.str(), cache.simVersion());
        ++t.entries;
        if (!r) {
            ++t.undecodable;
            continue;
        }
        t.instructions += r->totalInstructions;
        t.cycles += r->totalCycles;
        if (r->totalInstructions != kSamples * kInterval)
            ++t.offShape;
    }
    return t;
}

/**
 * Check a campaign's stored runs: every run its plan schedules must be
 * in @p cacheDir, and a fixed sample of them — the first training run
 * of the first scenario, the middle test run of the middle one, the
 * last training and test runs of the last — re-simulated with scalar
 * simulate() must match the stored batched results byte for byte
 * (encodeSimResult). An explore's refinement runs are not planned
 * ahead, so only its initial campaign is checked here.
 */
void
checkPlannedRuns(const CampaignSpec &spec, const std::string &cacheDir,
                 Checks &checks)
{
    ScenarioSet set = ScenarioSet::paperCopy();
    std::vector<std::string> names = spec.scenarios.scenarioNames();
    for (const std::string &n : names)
        set.resolve(n);
    ExperimentSpec base = spec.experiment;
    base.scenarios = &set;
    ResultCache cache(cacheDir);

    std::size_t planned = 0, missing = 0;
    for (std::size_t s = 0; s < names.size(); ++s) {
        ExperimentSpec es = base;
        es.benchmark = names[s];
        const BenchmarkProfile &prof = set.at(es.benchmark);
        // LHS and test sampling drop duplicates, so a plan may hold
        // fewer points than asked for: index from its own sizes.
        ExperimentPlan plan = planExperiment(es);
        std::vector<std::pair<const DesignPoint *, std::string>> sample;
        if (s == 0)
            sample.emplace_back(&plan.trainPoints.front(), "first train");
        if (s == names.size() / 2)
            sample.emplace_back(&plan.testPoints[plan.testPoints.size() / 2],
                                "middle test");
        if (s == names.size() - 1) {
            sample.emplace_back(&plan.trainPoints.back(), "last train");
            sample.emplace_back(&plan.testPoints.back(), "last test");
        }
        for (const auto *points : {&plan.trainPoints, &plan.testPoints})
            for (const DesignPoint &p : *points) {
                ++planned;
                SimConfig cfg = SimConfig::fromDesignPoint(plan.space, p);
                std::optional<SimResult> stored = cache.load(resultCacheKey(
                    prof, cfg, es.samples, es.intervalInstrs, es.dvm));
                if (!stored) {
                    ++missing;
                    continue;
                }
                for (const auto &pick : sample) {
                    if (pick.first != &p)
                        continue;
                    SimResult scalar = simulate(prof, cfg, es.samples,
                                                es.intervalInstrs, es.dvm);
                    checks.expect(encodeSimResult(*stored, kSimVersion) ==
                                      encodeSimResult(scalar, kSimVersion),
                                  "scalar simulate() matches the batched " +
                                      pick.second + " run of " + es.benchmark);
                }
            }
    }
    checks.expect(missing == 0, std::to_string(planned - missing) + "/" +
                                    std::to_string(planned) +
                                    " planned runs are in the cache");
}

double
meanOf(const std::vector<double> &v)
{
    double s = 0.0;
    for (double x : v)
        s += x;
    return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

/**
 * Configurations scored by the predictors in one campaign: every
 * sweep of an exploration (one per refinement round plus the final
 * one), or every (scenario, held-out configuration) of a suite.
 */
double
configsScored(const CampaignResult &r)
{
    if (r.kind == CampaignKind::Explore)
        return static_cast<double>(r.explore.rounds.size() *
                                   r.explore.sweepPoints);
    std::size_t scored = 0;
    for (const SuiteCell &cell : r.suite.cells)
        if (cell.domain == Domain::Cpi)
            scored += cell.msePerTest.size();
    return static_cast<double>(scored);
}

/** Per-name self time (span minus its direct children) of a trace. */
void
printSelfTimes(const std::vector<TraceEvent> &events)
{
    std::map<std::uint32_t, std::vector<const TraceEvent *>> byTid;
    for (const TraceEvent &e : events)
        if (e.ph == 'X')
            byTid[e.tid].push_back(&e);
    std::map<std::string, double> selfUs;
    for (auto &entry : byTid) {
        std::vector<const TraceEvent *> &spans = entry.second;
        std::stable_sort(spans.begin(), spans.end(),
                         [](const TraceEvent *a, const TraceEvent *b) {
                             if (a->ts != b->ts)
                                 return a->ts < b->ts;
                             return a->dur > b->dur;
                         });
        std::vector<const TraceEvent *> stack;
        std::vector<double> childUs;
        auto close = [&] {
            const TraceEvent *top = stack.back();
            selfUs[top->name] +=
                static_cast<double>(top->dur) - childUs.back();
            stack.pop_back();
            childUs.pop_back();
            if (!childUs.empty())
                childUs.back() += static_cast<double>(top->dur);
        };
        for (const TraceEvent *e : spans) {
            while (!stack.empty() &&
                   e->ts >= stack.back()->ts + stack.back()->dur)
                close();
            stack.push_back(e);
            childUs.push_back(0.0);
        }
        while (!stack.empty())
            close();
    }
    for (const auto &entry : selfUs)
        std::cout << "self_ms " << entry.first << " "
                  << entry.second / 1000.0 << "\n";
}

void
writeTraceAndValidate(const std::string &path, Checks &checks)
{
    std::filesystem::path parent = std::filesystem::path(path).parent_path();
    std::error_code ec;
    if (!parent.empty())
        std::filesystem::create_directories(parent, ec);
    writeTraceFile(path, 0, "wavebench");
    std::ifstream in(path, std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    std::vector<std::string> problems;
    try {
        problems = validateTraceDoc(parseJson(text.str()));
    } catch (const std::exception &e) {
        problems.push_back(e.what());
    }
    for (const std::string &p : problems)
        std::cerr << "wavebench: trace: " << p << "\n";
    checks.expect(problems.empty(), "trace file " + path + " validates");
    std::cout << "trace: " << path << " ("
              << spanTracer().events().size() << " events)\n";
}

void
emitSpecAndReport(const Options &opts, const CampaignSpec &spec,
                  const std::string &report, Checks &checks)
{
    std::error_code ec;
    std::filesystem::create_directories(opts.emitDir, ec);
    std::string base =
        (std::filesystem::path(opts.emitDir) / opts.workload).string();
    checks.expect(writeFileAtomic(base + ".spec.json",
                                  writeJson(toJson(spec)) + "\n") &&
                      writeFileAtomic(base + ".report.txt", report),
                  "emit spec and report to " + opts.emitDir);
}

/** Fresh, uniquely named directories under the run's work dir. */
class Scratch
{
  public:
    explicit Scratch(std::string root) : root(std::move(root)) {}

    std::string fresh(const std::string &tag)
    {
        return (root / (tag + "-" + std::to_string(seq++))).string();
    }

    static void remove(const std::string &dir)
    {
        std::error_code ec;
        std::filesystem::remove_all(dir, ec);
    }

  private:
    std::filesystem::path root;
    std::size_t seq = 0;
};

/** What set-up hands to the timed campaigns. */
struct SetUp
{
    CampaignSpec spec;
    std::string warmDir;    //!< suite-warm: the filled cache
    std::string coldReport; //!< suite-warm: report of the cache fill
    std::vector<double> seconds;
};

/**
 * Set-up, kSetupReps times: generate the spec (and for explore the
 * scenarios) from the seed, then either fill the warm cache or run a
 * one-scenario warm-up campaign.
 */
SetUp
setUp(const Options &opts, Scratch &scratch, Checks &checks)
{
    const bool warm = opts.workload == "suite-warm";
    const bool explore = opts.workload == "explore-sweep";
    SetUp out;
    for (std::size_t rep = 0; rep < kSetupReps; ++rep) {
        Clock::time_point start = Clock::now();
        out.spec = explore ? exploreSpec(opts.seed, opts.seed)
                           : suiteSpec(opts.seed);
        validateCampaign(out.spec);
        std::size_t invalidProfiles = 0;
        if (explore) {
            ScenarioGenerator gen(out.spec.scenarios.family,
                                  out.spec.scenarios.seed);
            for (const BenchmarkProfile &p :
                 gen.generateMany(out.spec.scenarios.count))
                invalidProfiles += profileValidationError(p).empty() ? 0 : 1;
        }
        CampaignRun fill, replay;
        std::string dir = explore ? std::string()
                                  : scratch.fresh(warm ? "fill" : "warmup");
        if (warm) {
            fill = runOnce(out.spec, openCache(dir));
            replay = runOnce(out.spec, openCache(dir));
        } else {
            runOnce(warmupSpec(out.spec),
                    explore ? nullptr : openCache(dir));
        }
        out.seconds.push_back(secondsSince(start));

        checks.expect(invalidProfiles == 0, "generated scenarios validate");
        if (!warm) {
            Scratch::remove(dir);
            continue;
        }
        if (rep == 0)
            out.coldReport = fill.report;
        checks.expect(fill.report == out.coldReport,
                      "cache fill " + std::to_string(rep) +
                          " reproduces the first fill's report");
        checks.expect(replay.report == out.coldReport,
                      "set-up replay matches the cold report");
        Scratch::remove(out.warmDir);
        out.warmDir = dir;
    }
    return out;
}

/** The timed campaigns of one run. */
struct Timed
{
    std::vector<double> seconds;       //!< untraced campaigns
    std::vector<double> tracedSeconds; //!< traced run only
    std::vector<double> renderSeconds; //!< of the traced campaigns
    std::map<std::string, double> phaseUs; //!< summed, traced campaigns
    CampaignRun first;     //!< campaign 0 (untraced)
    std::string cacheDir;  //!< the cache campaign 0 used, if any
    std::size_t campaigns = 0;
    std::size_t identical = 0; //!< later reports equal to campaign 0's
    double peakRssMb = 0.0;
};

/**
 * Campaigns back to back until the next one would overrun @p window
 * seconds (at least kMinCampaigns). suite-cold gets a fresh empty cache
 * each time — kept until exit, since deleting a thousand entries
 * between campaigns leaves background filesystem work in the next one
 * — suite-warm replays the filled one, explore runs cache-off. A traced
 * run alternates untraced and traced campaigns.
 */
Timed
timedCampaigns(const Options &opts, const SetUp &setup, double window,
               Scratch &scratch, Checks &checks)
{
    const bool cold = opts.workload == "suite-cold";
    const bool warm = opts.workload == "suite-warm";
    Timed out;
    out.cacheDir = setup.warmDir;
    // peak_rss_mb covers the timed campaigns only, not set-up or the
    // accuracy campaigns after them; free heap pages set-up left behind
    // go back to the kernel first, so the peak does not depend on
    // which allocator arenas set-up happened to grow.
    malloc_trim(0);
    resetPeakRss();
    Clock::time_point windowStart = Clock::now();
    for (;; ++out.campaigns) {
        double typical =
            median(out.seconds.empty() ? out.tracedSeconds : out.seconds);
        bool enough =
            out.seconds.size() >= kMinCampaigns &&
            (!opts.trace || out.tracedSeconds.size() >= kMinCampaigns);
        if (enough && (secondsSince(windowStart) + typical > window ||
                       (opts.trace &&
                        out.campaigns >= kMaxTracedRunCampaigns)))
            break;
        const bool traced = opts.trace && out.campaigns % 2 == 1;
        std::string dir = cold ? scratch.fresh("cold") : std::string();
        CampaignRun run = runOnce(setup.spec,
                                  cold   ? openCache(dir)
                                  : warm ? openCache(setup.warmDir)
                                         : nullptr,
                                  traced);
        (traced ? out.tracedSeconds : out.seconds).push_back(run.seconds);
        if (traced) {
            out.renderSeconds.push_back(run.renderSeconds);
            for (const auto &c : run.after.counters)
                if (c.first.rfind("phase.", 0) == 0)
                    out.phaseUs[c.first] += static_cast<double>(
                        delta(run.before, run.after, c.first));
        }

        const std::string tag = "campaign " + std::to_string(out.campaigns);
        if (cold)
            checks.expect(run.result.cacheMisses == run.runs() &&
                              run.result.cacheStores == run.runs() &&
                              run.computed() == run.runs(),
                          tag + ": every cold run is simulated and stored");
        if (warm) {
            checks.expect(run.result.cacheHits == run.runs() &&
                              run.result.cacheMisses == 0 &&
                              run.computed() == 0,
                          tag + ": every warm lookup hits");
            checks.expect(run.report == setup.coldReport,
                          tag + ": warm report equals the cold report");
        }
        if (out.campaigns == 0) {
            checks.expect(allFinite(campaignResultToJson(run.result)),
                          "no NaN/Inf in the report");
            if (cold)
                out.cacheDir = dir;
            out.first = std::move(run);
        } else if (checks.expect(run.report == out.first.report,
                                 tag + ": report equals campaign 0")) {
            ++out.identical;
        }
    }
    out.peakRssMb = peakRssMb();
    return out;
}

/**
 * checkPlannedRuns() plus the cache's view of the whole campaign: one
 * well-formed entry per distinct run. Returns the totals over the
 * stored runs.
 */
CacheTotals
checkStoredCampaign(const CampaignSpec &spec, const std::string &dir,
                    const CampaignRun &run, Checks &checks)
{
    checkPlannedRuns(spec, dir, checks);
    CacheTotals totals = sumCache(dir);
    checks.expect(totals.undecodable == 0 && totals.offShape == 0,
                  "every cached run decodes with samples x interval "
                  "instructions");
    // Equal unless a test point repeats a training point (test levels
    // are a subset of the training levels): then one entry serves both.
    checks.expect(totals.entries > 0 && totals.entries <= run.runs(),
                  "no more cache entries than campaign runs");
    return totals;
}

} // anonymous namespace

void
runWorkload(const Options &opts, MetricSet &endToEnd, MetricSet &perLayer,
            Checks &checks)
{
    const bool explore = opts.workload == "explore-sweep";
    Scratch scratch(opts.workDir);
    SetUp setup = setUp(opts, scratch, checks);

    Clock::time_point layersStart = Clock::now();
    if (opts.trace) {
        setTracingEnabled(true);
        measureLayers(opts, perLayer, checks);
        setTracingEnabled(false);
    }
    Timed timed =
        timedCampaigns(opts, setup, opts.seconds - secondsSince(layersStart),
                       scratch, checks);
    const CampaignRun &first = timed.first;

    std::cout << "report " << opts.workload
              << " fnv1a64=" << digestOf(first.report)
              << " bytes=" << first.report.size() << " identical_in="
              << timed.identical + 1 << "/" << timed.campaigns
              << " campaigns\n";
    if (!setup.coldReport.empty())
        std::cout << "report cold-fill fnv1a64="
                  << digestOf(setup.coldReport) << "\n";
    if (!opts.emitDir.empty())
        emitSpecAndReport(opts, setup.spec, first.report, checks);

    const double campaignS = median(timed.seconds);
    std::cout << "campaign_s: n=" << timed.seconds.size()
              << " median=" << campaignS;
    if (timed.seconds.size() >= 20) {
        double p = 100.0 *
                   (1.0 - 10.0 / static_cast<double>(timed.seconds.size()));
        std::cout << " p" << std::fixed << std::setprecision(2) << p
                  << std::defaultfloat << std::setprecision(6) << "="
                  << percentile(timed.seconds, p) << " (10 beyond)";
    }
    std::cout << " runs_per_campaign=" << first.runs()
              << " computed_per_campaign=" << first.computed() << " first:";
    for (std::size_t i = 0; i < std::min<std::size_t>(timed.seconds.size(), 40);
         ++i)
        std::cout << " " << timed.seconds[i];
    std::cout << "\n";

    if (opts.trace) {
        // Exact simulated counts of one --seed campaign; the explore
        // workload runs cache-off, so one more campaign stores its runs.
        std::string dir = timed.cacheDir;
        const CampaignRun *stored = &first;
        CampaignRun counted;
        if (explore) {
            dir = scratch.fresh("counted");
            counted = runOnce(setup.spec, openCache(dir));
            checks.expect(counted.report == first.report,
                          "cached explore report equals the cache-off "
                          "report");
            stored = &counted;
        }
        CacheTotals totals =
            checkStoredCampaign(setup.spec, dir, *stored, checks);
        perLayer.add("sim.instructions",
                     static_cast<double>(totals.instructions), "count");
        perLayer.add("sim.cycles", static_cast<double>(totals.cycles),
                     "count");
        perLayer.add("exec.runs", static_cast<double>(first.runs()),
                     "count");
        perLayer.add("exec.computed", static_cast<double>(first.computed()),
                     "count");
        perLayer.add("cache.hits",
                     static_cast<double>(
                         delta(first.before, first.after, "cache.hits")),
                     "count");
        perLayer.add("cache.misses",
                     static_cast<double>(
                         delta(first.before, first.after, "cache.misses")),
                     "count");
        perLayer.add("campaign.render_ms",
                     median(timed.renderSeconds) * 1000.0, "ms");
        const char *phases[] = {"plan",  "simulate", "assemble", "train",
                                "sweep", "pareto",   "refine"};
        double traced = static_cast<double>(timed.tracedSeconds.size());
        for (const char *p : phases)
            perLayer.add(std::string("phase.") + p + "_s",
                         timed.phaseUs[std::string("phase.") + p + "_us"] /
                             1e6 / traced,
                         "s");
        double tracedS = median(timed.tracedSeconds);
        perLayer.add("telemetry.overhead_pct",
                     100.0 * (tracedS - campaignS) / campaignS, "%");
        std::cout << "traced campaigns: n=" << timed.tracedSeconds.size()
                  << " median=" << tracedS << " untraced median=" << campaignS
                  << "\n";
        printSelfTimes(spanTracer().events());
        writeTraceAndValidate(opts.traceOut, checks);
        return;
    }

    // ---- Accuracy at the reference seeds. The accuracy metrics are
    // deterministic, but which design points (and, for explore, which
    // scenarios) a seed draws moves them by tens of percent, so they
    // come from one fixed campaign of the workload's kind plus its
    // companion replayed from the same cache: every run reports the
    // same values.
    CampaignSpec accSpec = explore
                               ? exploreSpec(kReferenceSeed,
                                             kReferenceScenarioSeed)
                               : suiteSpec(kReferenceSeed);
    CampaignSpec compSpec = companionSpec(accSpec);
    std::string accDir = scratch.fresh("accuracy");
    CampaignRun accuracy = runOnce(accSpec, openCache(accDir));
    CampaignRun companion = runOnce(compSpec, openCache(accDir));
    std::cout << "report accuracy-" << campaignKindName(accSpec.kind)
              << " fnv1a64=" << digestOf(accuracy.report) << " companion-"
              << campaignKindName(compSpec.kind)
              << " fnv1a64=" << digestOf(companion.report) << "\n";
    checks.expect(allFinite(campaignResultToJson(accuracy.result)) &&
                      allFinite(campaignResultToJson(companion.result)),
                  "no NaN/Inf in the accuracy reports");
    checks.expect(companion.result.cacheMisses == 0,
                  "companion campaign replays every run from the cache");
    const SuiteReport &suite =
        explore ? companion.result.suite : accuracy.result.suite;
    const ExploreReport &explored =
        explore ? accuracy.result.explore : companion.result.explore;
    checks.expect(!explored.rounds.empty(), "explore has round 0");

    // The explore workload runs cache-off: its stored campaign is the
    // accuracy campaign.
    if (explore)
        checkStoredCampaign(accSpec, accDir, accuracy, checks);
    else
        checkStoredCampaign(setup.spec, timed.cacheDir, first, checks);

    const double runs = static_cast<double>(first.runs());
    endToEnd.add("setup_s", median(setup.seconds), "s");
    endToEnd.add("campaign_s", campaignS, "s");
    endToEnd.add("runs_per_s", runs / campaignS, "1/s");
    endToEnd.add("sim_kinstr_per_s",
                 runs * static_cast<double>(kSamples * kInterval) / 1000.0 /
                     campaignS,
                 "kinstr/s");
    endToEnd.add("configs_per_s", configsScored(first.result) / campaignS,
                 "1/s");
    endToEnd.add("peak_rss_mb", timed.peakRssMb, "MB");
    endToEnd.add("cpi_mse_pct", suite.overallMedian(Domain::Cpi), "%");
    endToEnd.add("power_mse_pct", suite.overallMedian(Domain::Power), "%");
    endToEnd.add("avf_mse_pct", suite.overallMedian(Domain::Avf), "%");
    endToEnd.add("explore_err_pct",
                 explored.rounds.empty()
                     ? 0.0
                     : meanOf(explored.rounds.front().meanAbsErrPct),
                 "%");
}

} // namespace wavebench
