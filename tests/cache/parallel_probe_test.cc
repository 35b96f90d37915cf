/**
 * @file
 * The scheduler's parallel cache probe over a damaged cache: with
 * every third entry deleted, one truncated, one bit-flipped and one
 * entry path replaced by a directory, a replay at jobs 1 and 8 must
 * produce the all-cold results and report bytes, fire hit/miss events
 * and progress in task order from the calling thread (exactly what a
 * serial probe fires), and recompute and re-store every bad entry.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "cache/key.hh"
#include "cache/store.hh"
#include "campaign/campaign.hh"
#include "campaign/report.hh"
#include "exec/scheduler.hh"
#include "util/options.hh"
#include "workload/profile.hh"

namespace fs = std::filesystem;

namespace wavedyn
{
namespace
{

/** The pinned smoke-scale suite the campaign goldens use. */
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

/** How a replay finds one entry. */
enum class Damage
{
    None,
    Deleted,
    Truncated,
    BitFlipped,
    Directory,
};

/**
 * The damage plan over entries in a fixed order: every third deleted,
 * then the first three survivors truncated, bit-flipped and replaced
 * by a directory.
 */
std::vector<Damage>
damagePlan(std::size_t n)
{
    std::vector<Damage> plan(n, Damage::None);
    const Damage rest[] = {Damage::Truncated, Damage::BitFlipped,
                           Damage::Directory};
    std::size_t next = 0;
    for (std::size_t i = 0; i < n; ++i) {
        if (i % 3 == 0)
            plan[i] = Damage::Deleted;
        else if (next < 3)
            plan[i] = rest[next++];
    }
    return plan;
}

void
applyDamage(const std::string &path, Damage d)
{
    switch (d) {
      case Damage::None:
        return;
      case Damage::Deleted:
        fs::remove(path);
        return;
      case Damage::Truncated:
        fs::resize_file(path, fs::file_size(path) / 2);
        return;
      case Damage::BitFlipped: {
        std::fstream f(path, std::ios::binary | std::ios::in |
                                 std::ios::out);
        f.seekg(60);
        char c = 0;
        f.get(c);
        f.seekp(60);
        f.put(static_cast<char>(c ^ 0x04));
        return;
      }
      case Damage::Directory:
        fs::remove(path);
        fs::create_directory(path);
        return;
    }
}

std::size_t
countDamaged(const std::vector<Damage> &plan)
{
    return static_cast<std::size_t>(
        std::count_if(plan.begin(), plan.end(),
                      [](Damage d) { return d != Damage::None; }));
}

class ParallelProbeTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        root = (fs::temp_directory_path() /
                ("wavedyn-parallel-probe-" +
                 std::to_string(reinterpret_cast<std::uintptr_t>(this))))
                   .string();
        fs::remove_all(root);
    }

    void TearDown() override
    {
        setActiveResultCache(nullptr);
        fs::remove_all(root);
    }

    std::string root;
};

/** 3 benchmarks x 8 machines, in task order. */
std::vector<RunTask>
batchTasks()
{
    std::vector<RunTask> tasks;
    const auto &benchmarks = allBenchmarks();
    for (std::size_t b = 0; b < 3; ++b)
        for (unsigned rob : {48u, 64u, 80u, 96u, 112u, 128u, 144u, 160u}) {
            RunTask t;
            t.benchmark = &benchmarks[b];
            t.config = SimConfig::baseline();
            t.config.robSize = rob;
            t.samples = 8;
            t.intervalInstrs = 64;
            tasks.push_back(t);
        }
    return tasks;
}

struct Replay
{
    std::vector<std::string> encoded; //!< bit-exact result images
    std::vector<std::string> log;     //!< events + progress, call order
    ResultCacheStats stats;
};

Replay
runTasks(const std::string &root, std::size_t jobs)
{
    auto cache = std::make_shared<ResultCache>(root);
    RunScheduler s(0x5eed);
    s.setCache(cache);
    Replay out;
    std::mutex mu;
    auto note = [&](std::string entry) {
        std::lock_guard<std::mutex> lock(mu);
        out.log.push_back(std::move(entry));
    };
    CacheRunEvents ev;
    ev.hit = [&](const std::string &k) { note("hit " + k); };
    ev.miss = [&](const std::string &k) { note("miss " + k); };
    ev.store = [&](const std::string &k) { note("store " + k); };
    ev.storeFailed = [&](const std::string &k) {
        note("store-failed " + k);
    };
    s.onCacheEvents(ev);
    s.onProgress([&](std::size_t done, std::size_t) {
        note("progress " + std::to_string(done));
    });
    for (const RunTask &t : batchTasks())
        s.enqueue(t);
    ThreadPool pool(jobs);
    s.run(pool);
    for (std::size_t i = 0; i < s.size(); ++i)
        out.encoded.push_back(encodeSimResult(s.result(i), "x"));
    out.stats = cache->stats();
    return out;
}

TEST_F(ParallelProbeTest, DamagedReplayKeepsTaskOrderAndHeals)
{
    std::vector<RunTask> tasks = batchTasks();
    std::vector<std::string> hex, paths;
    {
        ResultCache layout(root);
        for (const RunTask &t : tasks) {
            CacheKey key = resultCacheKey(*t.benchmark, t.config,
                                          t.samples, t.intervalInstrs,
                                          t.dvm);
            hex.push_back(key.hex());
            paths.push_back(layout.entryPath(key));
        }
    }
    Replay cold = runTasks(root, 1);
    ASSERT_EQ(cold.stats.stores, tasks.size());

    std::vector<Damage> plan = damagePlan(tasks.size());
    std::size_t damaged = countDamaged(plan);
    for (std::size_t jobs : {std::size_t{1}, std::size_t{8}}) {
        for (std::size_t i = 0; i < tasks.size(); ++i)
            applyDamage(paths[i], plan[i]);

        Replay warm = runTasks(root, jobs);
        EXPECT_EQ(warm.encoded, cold.encoded) << "jobs=" << jobs;
        EXPECT_EQ(warm.stats.misses, damaged);
        EXPECT_EQ(warm.stats.badEntries, 2u)
            << "the truncated and bit-flipped records";
        EXPECT_EQ(warm.stats.stores, damaged);
        EXPECT_EQ(warm.stats.storeFailures, 0u);

        // The probe phase's events come first, all from the calling
        // thread in task order: each hit with its progress tick, each
        // miss alone.
        std::vector<std::string> probe;
        std::size_t hits = 0;
        for (std::size_t i = 0; i < tasks.size(); ++i) {
            if (plan[i] != Damage::None) {
                probe.push_back("miss " + hex[i]);
            } else {
                probe.push_back("hit " + hex[i]);
                probe.push_back("progress " + std::to_string(++hits));
            }
        }
        ASSERT_GE(warm.log.size(), probe.size());
        EXPECT_EQ(std::vector<std::string>(
                      warm.log.begin(),
                      warm.log.begin() +
                          static_cast<std::ptrdiff_t>(probe.size())),
                  probe)
            << "jobs=" << jobs;

        // Then, in any order, each recomputed run's store and tick.
        std::vector<std::string> rest(
            warm.log.begin() + static_cast<std::ptrdiff_t>(probe.size()),
            warm.log.end());
        std::vector<std::string> expected;
        for (std::size_t i = 0; i < tasks.size(); ++i)
            if (plan[i] != Damage::None)
                expected.push_back("store " + hex[i]);
        for (std::size_t n = hits + 1; n <= tasks.size(); ++n)
            expected.push_back("progress " + std::to_string(n));
        std::sort(rest.begin(), rest.end());
        std::sort(expected.begin(), expected.end());
        EXPECT_EQ(rest, expected) << "jobs=" << jobs;

        // Healed: every entry is a valid record again.
        for (const std::string &p : paths)
            EXPECT_TRUE(fs::is_regular_file(p)) << p;
        EXPECT_EQ(ResultCache(root).usage().invalidEntries, 0u);
        Replay again = runTasks(root, jobs);
        EXPECT_EQ(again.stats.hits, tasks.size());
        EXPECT_EQ(again.encoded, cold.encoded);
    }
}

TEST_F(ParallelProbeTest, DamagedCampaignReportMatchesCold)
{
    CampaignSpec spec = parseCampaignSpec(kSuiteSpecJson);
    auto runOnce = [&](std::size_t jobs) {
        setActiveResultCache(std::make_shared<ResultCache>(root));
        setJobs(jobs);
        CampaignResult result = runCampaign(spec);
        setJobs(0);
        setActiveResultCache(nullptr);
        return result;
    };
    CampaignResult cold = runOnce(1);
    std::string coldReport = renderReport(cold, ReportFormat::Text);

    for (std::size_t jobs : {std::size_t{1}, std::size_t{8}}) {
        std::vector<std::string> entries;
        for (const auto &e : fs::recursive_directory_iterator(root))
            if (e.is_regular_file())
                entries.push_back(e.path().string());
        std::sort(entries.begin(), entries.end());
        ASSERT_EQ(entries.size(), cold.cacheMisses);
        std::vector<Damage> plan = damagePlan(entries.size());
        for (std::size_t i = 0; i < entries.size(); ++i)
            applyDamage(entries[i], plan[i]);

        CampaignResult healed = runOnce(jobs);
        EXPECT_EQ(renderReport(healed, ReportFormat::Text), coldReport)
            << "jobs=" << jobs;
        EXPECT_EQ(healed.cacheMisses, countDamaged(plan));
        EXPECT_EQ(healed.cacheStores, countDamaged(plan));
    }
}

} // anonymous namespace
} // namespace wavedyn
