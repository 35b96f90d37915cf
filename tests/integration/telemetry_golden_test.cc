/**
 * @file
 * Telemetry acceptance tests against the real CLI binary (path in
 * WAVEDYN_CLI, set by CTest): the tentpole's hard constraint is that
 * telemetry observes and never participates — stdout reports must be
 * byte-identical with --trace-out/--metrics-out on or off, at jobs 1
 * and 8, and the recorded span (name, ph) multiset must be identical
 * for every --jobs setting. The side files themselves must parse with
 * util/json, pass the nesting validator, and satisfy the campaign
 * invariants (cache hits + misses == scheduler runs; histogram counts
 * match their buckets) that `wavedyn_cli trace` enforces.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include <sys/wait.h>

#include "util/json.hh"
#include "telemetry/trace.hh"

namespace fs = std::filesystem;

namespace wavedyn
{
namespace
{

std::string
cliPath()
{
    const char *env = std::getenv("WAVEDYN_CLI");
    return env != nullptr ? std::string(env) : std::string();
}

/** Run a shell command, discarding its stderr; returns exit code. */
int
shell(const std::string &cmd)
{
    int rc = std::system((cmd + " 2>/dev/null").c_str());
    return rc < 0 ? rc : WEXITSTATUS(rc);
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
}

/** The pinned smoke-scale suite spec the other goldens use. */
const char *kSuiteSpecJson = R"({
  "kind": "suite",
  "scenarios": {
    "generate": {"family": "mixed", "seed": 7, "count": 3}
  },
  "experiment": {
    "train_points": 10,
    "test_points": 4,
    "samples": 16,
    "interval_instrs": 120
  }
})";

/** A small explore spec: its sweep runs through the grid kernel. */
const char *kExploreSpecJson = R"({
  "kind": "explore",
  "scenarios": {
    "generate": {"family": "mixed", "seed": 7, "count": 2}
  },
  "experiment": {
    "train_points": 10,
    "test_points": 4,
    "samples": 16,
    "interval_instrs": 120
  },
  "explore": {
    "objectives": ["cpi", "energy", "avf"],
    "budget": 2,
    "per_round": 2,
    "chunk": 64,
    "max_sweep_points": 512
  }
})";

/** Sorted (name, ph) multiset of the non-metadata events. */
std::vector<std::pair<std::string, std::string>>
spanMultiset(const JsonValue &doc)
{
    std::vector<std::pair<std::string, std::string>> keys;
    const JsonValue &events = doc.at("traceEvents");
    for (std::size_t i = 0; i < events.size(); ++i) {
        const std::string &ph = events.at(i).at("ph").asString();
        if (ph == "M")
            continue;
        keys.emplace_back(events.at(i).at("name").asString(), ph);
    }
    std::sort(keys.begin(), keys.end());
    return keys;
}

std::uint64_t
counterOf(const JsonValue &metrics, const std::string &name)
{
    const JsonValue *v = metrics.at("counters").find(name);
    return v != nullptr ? v->asUint64() : 0;
}

class TelemetryGoldenTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        if (cliPath().empty())
            GTEST_SKIP() << "WAVEDYN_CLI not set";
        dir = (fs::temp_directory_path() /
               ("wavedyn-telemetry-golden-" +
                std::to_string(reinterpret_cast<std::uintptr_t>(this))))
                  .string();
        fs::remove_all(dir);
        fs::create_directories(dir);
        spec = dir + "/suite.json";
        std::ofstream out(spec, std::ios::binary);
        out << kSuiteSpecJson;
    }

    void TearDown() override { fs::remove_all(dir); }

    std::string dir;
    std::string spec;
};

TEST_F(TelemetryGoldenTest, ReportsAreByteIdenticalWithTelemetryOnOff)
{
    std::string plain = dir + "/plain.txt";
    ASSERT_EQ(shell(cliPath() + " run " + spec + " --jobs 1 > " + plain),
              0);

    for (int jobs : {1, 8}) {
        std::string tag = std::to_string(jobs);
        std::string out = dir + "/traced" + tag + ".txt";
        ASSERT_EQ(shell(cliPath() + " run " + spec + " --jobs " + tag +
                        " --trace-out " + dir + "/t" + tag + ".json" +
                        " --metrics-out " + dir + "/m" + tag + ".json" +
                        " > " + out),
                  0);
        EXPECT_EQ(slurp(out), slurp(plain))
            << "telemetry moved report bytes at jobs=" << jobs;
    }
}

TEST_F(TelemetryGoldenTest, WarmSuiteReportsAreByteIdenticalWithTelemetryOnOff)
{
    // A warm suite resolves every run in the cache probe; telemetry
    // times each probe's key, read and decode, and must not move a
    // byte of the replayed report.
    std::string cache = " --cache-dir " + dir + "/cache";
    std::string cold = dir + "/cold.txt";
    ASSERT_EQ(shell(cliPath() + " run " + spec + " --jobs 2" + cache +
                    " > " + cold),
              0);
    std::string plain = dir + "/warm_plain.txt";
    ASSERT_EQ(shell(cliPath() + " run " + spec + " --jobs 1" + cache +
                    " > " + plain),
              0);
    EXPECT_EQ(slurp(plain), slurp(cold));

    for (int jobs : {1, 8}) {
        std::string tag = std::to_string(jobs);
        std::string out = dir + "/warm_traced" + tag + ".txt";
        std::string m = dir + "/warm_m" + tag + ".json";
        ASSERT_EQ(shell(cliPath() + " run " + spec + " --jobs " + tag +
                        cache + " --trace-out " + dir + "/warm_t" + tag +
                        ".json --metrics-out " + m + " > " + out),
                  0);
        EXPECT_EQ(slurp(out), slurp(cold))
            << "telemetry moved warm report bytes at jobs=" << jobs;

        // Every run was a probe hit, and each probe's three parts
        // were timed once.
        JsonValue metrics = parseJson(slurp(m));
        std::uint64_t runs = counterOf(metrics, "scheduler.runs");
        EXPECT_GT(runs, 0u);
        EXPECT_EQ(counterOf(metrics, "cache.hits"), runs);
        const JsonValue &hist = metrics.at("histograms");
        for (const char *name :
             {"cache.key_us", "cache.load_us", "cache.decode_us"}) {
            const JsonValue *h = hist.find(name);
            ASSERT_NE(h, nullptr) << name;
            EXPECT_EQ(h->at("count").asUint64(), runs) << name;
        }
    }
}

TEST_F(TelemetryGoldenTest, ExploreReportsAreByteIdenticalWithTelemetryOnOff)
{
    std::string explore = dir + "/explore.json";
    {
        std::ofstream out(explore, std::ios::binary);
        out << kExploreSpecJson;
    }
    std::string plain = dir + "/explore_plain.txt";
    ASSERT_EQ(shell(cliPath() + " run " + explore +
                    " --jobs 1 --no-cache > " + plain),
              0);
    ASSERT_FALSE(slurp(plain).empty());

    std::map<int, JsonValue> metrics;
    for (int jobs : {1, 8}) {
        std::string tag = std::to_string(jobs);
        std::string out = dir + "/explore_traced" + tag + ".txt";
        std::string m = dir + "/explore_m" + tag + ".json";
        ASSERT_EQ(shell(cliPath() + " run " + explore + " --jobs " + tag +
                        " --no-cache --trace-out " + dir + "/explore_t" +
                        tag + ".json --metrics-out " + m + " > " + out),
                  0);
        EXPECT_EQ(slurp(out), slurp(plain))
            << "telemetry moved explore report bytes at jobs=" << jobs;
        metrics[jobs] = parseJson(slurp(m));
    }

    // The sweep exports the kernel's unit sharing: a bank trained on
    // one shared plan holds repeated units, so fewer are distinct.
    // Both counts are properties of the trained bank, not of timing.
    std::uint64_t raw = counterOf(metrics[1], "explore.sweep_units_raw");
    std::uint64_t shared =
        counterOf(metrics[1], "explore.sweep_units_shared");
    EXPECT_GT(shared, 0u);
    EXPECT_LT(shared, raw);
    EXPECT_EQ(counterOf(metrics[8], "explore.sweep_units_raw"), raw);
    EXPECT_EQ(counterOf(metrics[8], "explore.sweep_units_shared"), shared);

    // The sweep's kernel work, summed per chunk: exp calls (one per
    // near unit per point, plus any a fallback takes) and guard
    // fallbacks are functions of the swept points alone, so every
    // --jobs setting adds up the same totals.
    std::uint64_t exps = counterOf(metrics[1], "explore.sweep_exp_calls");
    EXPECT_GT(exps, 0u);
    EXPECT_EQ(counterOf(metrics[8], "explore.sweep_exp_calls"), exps);
    EXPECT_EQ(counterOf(metrics[8], "explore.sweep_guard_fallbacks"),
              counterOf(metrics[1], "explore.sweep_guard_fallbacks"));
}

TEST_F(TelemetryGoldenTest, SpanMultisetIsJobsInvariant)
{
    for (int jobs : {1, 8}) {
        std::string tag = std::to_string(jobs);
        ASSERT_EQ(shell(cliPath() + " run " + spec + " --jobs " + tag +
                        " --trace-out " + dir + "/t" + tag + ".json" +
                        " --metrics-out " + dir + "/m" + tag + ".json" +
                        " > /dev/null"),
                  0);
    }
    JsonValue t1 = parseJson(slurp(dir + "/t1.json"));
    JsonValue t8 = parseJson(slurp(dir + "/t8.json"));
    EXPECT_EQ(spanMultiset(t1), spanMultiset(t8));
    EXPECT_FALSE(spanMultiset(t1).empty());

    // Jobs-invariant counters too: everything that is not a duration.
    JsonValue m1 = parseJson(slurp(dir + "/m1.json"));
    JsonValue m8 = parseJson(slurp(dir + "/m8.json"));
    for (const char *name :
         {"scheduler.runs", "scheduler.computed", "cache.hits",
          "cache.misses", "cache.stores"})
        EXPECT_EQ(counterOf(m1, name), counterOf(m8, name)) << name;
}

TEST_F(TelemetryGoldenTest, TraceValidatesAndNestsProperly)
{
    ASSERT_EQ(shell(cliPath() + " run " + spec + " --jobs 4" +
                    " --trace-out " + dir + "/t.json > /dev/null"),
              0);
    JsonValue doc = parseJson(slurp(dir + "/t.json"));
    std::vector<std::string> problems = validateTraceDoc(doc);
    EXPECT_TRUE(problems.empty())
        << (problems.empty() ? "" : problems.front());

    // And the CLI's own validator agrees.
    EXPECT_EQ(shell(cliPath() + " trace " + dir + "/t.json >/dev/null"),
              0);
}

TEST_F(TelemetryGoldenTest, CacheInvariantHitsPlusMissesEqualsRuns)
{
    std::string cache = dir + "/cache";
    // Cold then warm, both against the same cache.
    for (const char *pass : {"cold", "warm"}) {
        ASSERT_EQ(shell(cliPath() + " run " + spec + " --jobs 4" +
                        " --cache-dir " + cache + " --metrics-out " +
                        dir + "/" + pass + ".json > /dev/null"),
                  0);
    }
    JsonValue cold = parseJson(slurp(dir + "/cold.json"));
    JsonValue warm = parseJson(slurp(dir + "/warm.json"));
    EXPECT_GT(counterOf(cold, "scheduler.runs"), 0u);
    EXPECT_EQ(counterOf(cold, "cache.hits") +
                  counterOf(cold, "cache.misses"),
              counterOf(cold, "scheduler.runs"));
    EXPECT_EQ(counterOf(warm, "cache.misses"), 0u);
    EXPECT_EQ(counterOf(warm, "cache.hits"),
              counterOf(warm, "scheduler.runs"));
    // A fully warm run computes nothing.
    EXPECT_EQ(counterOf(warm, "scheduler.computed"), 0u);

    // The CLI validator checks both documents clean.
    EXPECT_EQ(shell(cliPath() + " trace " + dir +
                    "/cold.json >/dev/null"),
              0);
    EXPECT_EQ(shell(cliPath() + " trace " + dir +
                    "/warm.json >/dev/null"),
              0);
}

TEST_F(TelemetryGoldenTest, TraceSubcommandRejectsBrokenDocuments)
{
    // Overlapping spans on one track must fail validation.
    std::string bad = dir + "/bad.json";
    {
        std::ofstream out(bad, std::ios::binary);
        out << R"({"traceEvents":[
          {"name":"a","cat":"t","ph":"X","ts":0,"dur":100,"pid":0,"tid":0},
          {"name":"b","cat":"t","ph":"X","ts":50,"dur":100,"pid":0,"tid":0}
        ]})";
    }
    EXPECT_EQ(shell(cliPath() + " trace " + bad + " >/dev/null"), 1);

    // Metrics whose cache counters disagree with the run count too.
    std::string badMetrics = dir + "/badm.json";
    {
        std::ofstream out(badMetrics, std::ios::binary);
        out << R"({"schema":"wavedyn-metrics-v1","bucket_bounds_us":[],
          "counters":{"cache.hits":3,"cache.misses":1,
                      "scheduler.runs":5},
          "gauges":{},"histograms":{}})";
    }
    EXPECT_EQ(shell(cliPath() + " trace " + badMetrics + " >/dev/null"),
              1);
}

TEST_F(TelemetryGoldenTest, ShardedRunMergesFleetTelemetry)
{
    std::string job = dir + "/job";
    std::string report = dir + "/fleet.txt";
    ASSERT_EQ(shell(cliPath() + " shard " + spec + " --workers 2" +
                    " --job-dir " + job + " --trace-out " + dir +
                    "/fleet_t.json --metrics-out " + dir +
                    "/fleet_m.json > " + report),
              0);

    // Merged report byte-identical to the single-process run.
    std::string plain = dir + "/plain.txt";
    ASSERT_EQ(shell(cliPath() + " run " + spec + " --jobs 1 --no-cache" +
                    " > " + plain),
              0);
    EXPECT_EQ(slurp(report), slurp(plain));

    // The merged timeline has the orchestrator + one process per
    // shard, validates, and the merged metrics hold the invariant.
    JsonValue timeline = parseJson(slurp(dir + "/fleet_t.json"));
    std::vector<std::string> problems = validateTraceDoc(timeline);
    EXPECT_TRUE(problems.empty())
        << (problems.empty() ? "" : problems.front());
    std::map<std::uint64_t, std::size_t> pids;
    const JsonValue &events = timeline.at("traceEvents");
    for (std::size_t i = 0; i < events.size(); ++i)
        ++pids[events.at(i).at("pid").asUint64()];
    EXPECT_EQ(pids.size(), 4u) << "orchestrator + 3 shard lanes";

    JsonValue metrics = parseJson(slurp(dir + "/fleet_m.json"));
    EXPECT_EQ(counterOf(metrics, "cache.hits") +
                  counterOf(metrics, "cache.misses"),
              counterOf(metrics, "scheduler.runs"));
    EXPECT_EQ(counterOf(metrics, "fleet.spawns"), 3u);
    EXPECT_EQ(counterOf(metrics, "fleet.publishes"), 3u);

    // Per-shard side files landed in the job dir and shard logs are
    // stamped with the shard id.
    EXPECT_TRUE(fs::exists(job + "/shards/shard-000.trace.json"));
    EXPECT_TRUE(fs::exists(job + "/shards/shard-000.metrics.json"));
    std::string log = slurp(job + "/shards/shard-000.log");
    EXPECT_NE(log.find("Z shard-000] "), std::string::npos)
        << "shard log lines are not stamped: " << log.substr(0, 200);
}

} // namespace
} // namespace wavedyn
