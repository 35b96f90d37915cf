/**
 * @file
 * wavebench entry point: argument parsing, process-wide settings, and
 * the JSON result line.
 *
 *   wavebench --workload suite-cold|suite-warm|explore-sweep
 *             --seed N --seconds S --trace 0|1
 *             [--work-dir DIR] [--emit DIR]
 *
 * Campaigns run on 2 worker threads (fewer on a smaller host) with the
 * default batch width: the timings are only comparable at a pinned
 * parallelism.
 *
 * The last line of stdout is always one JSON object
 * {"correct", "attempted", "failed", "metrics"} unless the arguments
 * are unusable (exit 2, nothing printed). Any failed check makes the
 * exit code 1.
 */

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <exception>
#include <filesystem>
#include <iostream>
#include <string>
#include <thread>

#include "bench.hh"
#include "sim/batch.hh"
#include "util/json.hh"
#include "util/options.hh"
#include "util/parse.hh"

namespace wavebench
{

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double
percentile(std::vector<double> values, double p)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
    std::size_t idx = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
    return values[std::min(idx, values.size() - 1)];
}

bool
Checks::expect(bool ok, const std::string &what)
{
    ++nAttempted;
    if (!ok) {
        ++nFailed;
        std::cerr << "wavebench: CHECK FAILED: " << what << "\n";
    }
    return ok;
}

namespace
{

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "wavebench: " << why << "\n"
              << "usage: wavebench --workload <name> --seed N --seconds S "
                 "--trace 0|1 [--work-dir DIR] [--emit DIR]\n"
              << "workloads:";
    for (const std::string &w : workloadNames())
        std::cerr << " " << w;
    std::cerr << "\n";
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    o.workDir = ".bench_build/wavebench-work";
    bool haveWorkload = false;
    for (int i = 1; i < argc; i += 2) {
        std::string key = argv[i];
        if (i + 1 >= argc)
            usage(key + " needs a value");
        std::string val = argv[i + 1];
        std::uint64_t n = 0;
        if (key == "--workload") {
            o.workload = val;
            haveWorkload = true;
        } else if (key == "--seed") {
            if (!wavedyn::parseUint64(val, n))
                usage("--seed must be an unsigned integer");
            o.seed = n;
        } else if (key == "--seconds") {
            if (!wavedyn::parseUint64(val, n) || n == 0 || n > 600)
                usage("--seconds must be a whole number in 1..600");
            o.seconds = static_cast<double>(n);
        } else if (key == "--trace") {
            if (val != "0" && val != "1")
                usage("--trace must be 0 or 1");
            o.trace = val == "1";
        } else if (key == "--work-dir") {
            o.workDir = val;
        } else if (key == "--emit") {
            o.emitDir = val;
        } else {
            usage("unknown argument " + key);
        }
    }
    if (!haveWorkload ||
        std::find(workloadNames().begin(), workloadNames().end(),
                  o.workload) == workloadNames().end())
        usage("--workload must name one of the workloads");
    return o;
}

wavedyn::JsonValue
metricsJson(const MetricSet &set)
{
    wavedyn::JsonValue out = wavedyn::JsonValue::object();
    for (const MetricSet::Entry &e : set.all()) {
        wavedyn::JsonValue m = wavedyn::JsonValue::object();
        if (e.unit == "count")
            m.set("value", static_cast<std::uint64_t>(std::llround(e.value)));
        else
            m.set("value", e.value);
        m.set("unit", e.unit);
        out.set(e.name, std::move(m));
    }
    return out;
}

} // anonymous namespace
} // namespace wavebench

int
main(int argc, char **argv)
{
    using namespace wavebench;
    Options opts = parseArgs(argc, argv);
    wavedyn::setJobs(
        std::min<std::size_t>(2, std::max(1u, std::thread::hardware_concurrency())));
    wavedyn::setGlobalBatchWidth(wavedyn::kDefaultBatchWidth);

    // Every cache directory and output of this process lives under one
    // private directory, removed at exit; only the trace file of a
    // traced run outlives it.
    if (opts.trace)
        opts.traceOut = (std::filesystem::path(opts.workDir) /
                         ("trace-" + opts.workload + "-seed" +
                          std::to_string(opts.seed) + ".json"))
                            .string();
    std::filesystem::path root =
        std::filesystem::path(opts.workDir) /
        ("run-" + std::to_string(::getpid()));
    std::error_code ec;
    std::filesystem::remove_all(root, ec);
    std::filesystem::create_directories(root, ec);
    if (ec) {
        std::cerr << "wavebench: cannot create " << root << ": "
                  << ec.message() << "\n";
        return 2;
    }
    opts.workDir = root.string();

    std::cout << "wavebench: workload=" << opts.workload
              << " seed=" << opts.seed << " seconds=" << opts.seconds
              << " trace=" << (opts.trace ? 1 : 0)
              << " jobs=" << wavedyn::currentJobs()
              << " batch_width=" << wavedyn::globalBatchWidth() << "\n";

    MetricSet endToEnd, perLayer;
    Checks checks;
    try {
        runWorkload(opts, endToEnd, perLayer, checks);
    } catch (const std::exception &e) {
        checks.expect(false, std::string("workload aborted: ") + e.what());
    }
    std::filesystem::remove_all(root, ec);

    wavedyn::JsonValue result = wavedyn::JsonValue::object();
    result.set("correct", checks.failed() == 0);
    result.set("attempted", checks.attempted());
    result.set("failed", checks.failed());
    result.set("metrics", metricsJson(opts.trace ? perLayer : endToEnd));
    std::cout << wavedyn::writeJson(result, 0) << std::endl;
    return checks.failed() == 0 ? 0 : 1;
}
