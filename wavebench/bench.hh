/**
 * @file
 * wavebench — the campaign-level benchmark of wavedyn.
 *
 * One process runs one named workload as real campaigns through
 * runCampaign() (the code path behind `wavedyn_cli run`), checks that
 * every report is correct, and prints one JSON result line. With
 * tracing off it reports the end-to-end metrics; a separate traced run
 * reports per-layer metrics, timed around the benchmark's own calls
 * into each module's public functions and recorded as spans on the
 * process-global SpanTracer, so they share one Chrome trace with the
 * program's phase and run spans.
 *
 * Shared declarations of the three translation units: main.cc
 * (arguments, result line), campaigns.cc (workloads and checks) and
 * layers.cc (isolated per-layer measurements).
 */

#ifndef WAVEBENCH_BENCH_HH
#define WAVEBENCH_BENCH_HH

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace wavebench
{

using Clock = std::chrono::steady_clock;

/**
 * Campaign sizes ("bench scale"), shared by every workload and layer
 * measurement: the quick scale's Figure 8 protocol — 60 LHS training
 * and 20 random test configurations per scenario, 128-sample traces —
 * with 64-instruction intervals, so one cold paper-twelve suite is
 * 960 runs of 8192 sampled instructions and a run holds enough
 * campaigns for a steady median.
 */
constexpr std::size_t kTrainPoints = 60;
constexpr std::size_t kTestPoints = 20;
constexpr std::size_t kSamples = 128;
constexpr std::size_t kInterval = 64;

/** Seconds elapsed since @p start. */
double secondsSince(Clock::time_point start);

/** Median of @p values (mean of the middle pair); 0 when empty. */
double median(std::vector<double> values);

/**
 * Nearest-rank percentile, @p p in [0, 100]; 0 when empty. Used for
 * tails: percentile(v, 99) of 1000 samples leaves 10 beyond it.
 */
double percentile(std::vector<double> values, double p);

/** Run-time settings of one benchmark invocation. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string workDir;  //!< scratch root for caches and traces
    std::string traceOut; //!< Chrome trace path of a traced run
    std::string emitDir;  //!< when set: write spec + report there
};

/** Named metrics in insertion order, each with its unit. */
class MetricSet
{
  public:
    void add(const std::string &name, double value, const std::string &unit)
    {
        entries.push_back({name, value, unit});
    }

    struct Entry
    {
        std::string name;
        double value;
        std::string unit;
    };

    const std::vector<Entry> &all() const { return entries; }

  private:
    std::vector<Entry> entries;
};

/**
 * Correctness bookkeeping: every operation the benchmark checks is
 * attempted once; a failed check is printed to stderr and counted.
 */
class Checks
{
  public:
    /** Record one checked operation; returns @p ok. */
    bool expect(bool ok, const std::string &what);

    std::uint64_t attempted() const { return nAttempted; }
    std::uint64_t failed() const { return nFailed; }

  private:
    std::uint64_t nAttempted = 0;
    std::uint64_t nFailed = 0;
};

/** Workload names, in the order BENCHMARK.json lists them. */
const std::vector<std::string> &workloadNames();

/**
 * Run one workload: set-up, timed campaigns, correctness checks.
 * Untraced runs fill @p endToEnd; traced runs fill @p perLayer (and
 * call measureLayers()).
 */
void runWorkload(const Options &opts, MetricSet &endToEnd,
                 MetricSet &perLayer, Checks &checks);

/**
 * Isolated per-layer measurements: decode, simulation kernels, power,
 * scheduler, cache, predictor, wavelet, RBF/linear algebra and Pareto
 * merge, each timed around the benchmark's own call and wrapped in a
 * span on the process-global tracer.
 */
void measureLayers(const Options &opts, MetricSet &perLayer,
                   Checks &checks);

} // namespace wavebench

#endif // WAVEBENCH_BENCH_HH
