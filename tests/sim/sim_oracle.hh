/**
 * @file
 * The frozen SimResult digest oracle (tests/data/sim_digests.txt):
 * the tuples it covers and how a run is reduced to a digest. Shared
 * by the oracle test and the idle-skip coverage test.
 *
 * Each line of the data file is `<benchmark> <config> dvm<0|1>
 * <digest>`, where the digest is 64-bit FNV-1a over the run's cache
 * record (encodeSimResult, which stores doubles by bit pattern). The
 * file was generated once, from the simulator as it stood before the
 * event-driven issue stage, and is never regenerated: a changed
 * digest means simulate() computes something else.
 */

#ifndef WAVEDYN_TESTS_SIM_SIM_ORACLE_HH
#define WAVEDYN_TESTS_SIM_SIM_ORACLE_HH

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "cache/key.hh"
#include "cache/store.hh"
#include "sim/simulator.hh"
#include "workload/generator.hh"
#include "workload/profile.hh"
#include "workload/shared_decode.hh"

namespace wavedyn
{
namespace oracle
{

/** Run shape of every oracle tuple. */
constexpr std::size_t kSamples = 16;
constexpr std::size_t kInterval = 256;

/** One generated profile per family (seed 7) plus the paper's gcc. */
inline std::vector<BenchmarkProfile>
benchmarks()
{
    std::vector<BenchmarkProfile> out;
    for (WorkloadFamily f : allFamilies())
        out.push_back(ScenarioGenerator(f, 7).generate(0));
    out.push_back(benchmarkByName("gcc"));
    return out;
}

/**
 * Named machine configurations. "widest" has a 48-entry issue scan
 * cap (3 x fetch 16) below its 128-entry IQ; "rob24" (fetch 4) rings
 * into 32 slots, under one 64-bit bitset word; "rob200" rings into
 * 256 slots that its ROB only partly fills, with its IQ past the
 * 32-entry cap.
 */
inline std::vector<std::pair<std::string, SimConfig>>
configs()
{
    std::vector<std::pair<std::string, SimConfig>> out;
    SimConfig base = SimConfig::baseline();
    out.emplace_back("baseline", base);

    SimConfig wide = base;
    wide.fetchWidth = 16;
    wide.robSize = 160;
    wide.iqSize = 128;
    wide.lsqSize = 64;
    wide.l2SizeKb = 4096;
    wide.l2Lat = 8;
    out.emplace_back("widest", wide);

    SimConfig narrow = base;
    narrow.fetchWidth = 2;
    narrow.iqSize = 32;
    narrow.lsqSize = 16;
    narrow.il1SizeKb = 8;
    narrow.dl1SizeKb = 8;
    narrow.dl1Lat = 4;
    out.emplace_back("narrowest", narrow);

    SimConfig mem = base;
    mem.l2SizeKb = 256;
    mem.l2Lat = 20;
    out.emplace_back("membound", mem);

    SimConfig small = base;
    small.fetchWidth = 4;
    small.robSize = 24;
    small.iqSize = 24;
    small.lsqSize = 12;
    out.emplace_back("rob24", small);

    SimConfig odd = base;
    odd.robSize = 200;
    odd.iqSize = 160;
    out.emplace_back("rob200", odd);
    return out;
}

inline DvmConfig
dvm(bool on)
{
    DvmConfig d;
    d.enabled = on;
    return d;
}

/** Digest of one run: FNV-1a over its cache record. */
inline std::uint64_t
digest(const SimResult &r)
{
    std::string bytes = encodeSimResult(r, "oracle");
    return fnv1a64(bytes, 0xcbf29ce484222325ull);
}

/** Tuple key as written in the data file. */
inline std::string
key(const std::string &bench, const std::string &cfg, bool dvmOn)
{
    return bench + " " + cfg + (dvmOn ? " dvm1" : " dvm0");
}

/** One run through a Pipeline, with its idle fast-forward count. */
struct IdleSkipRun
{
    SimResult result;
    std::uint64_t cycles = 0;  //!< Pipeline::now() at the end
    std::uint64_t skipped = 0; //!< Pipeline::idleSkippedCycles()
};

/**
 * simulate()'s warmup/interval loop over one Pipeline, built the
 * one way simulateBatch() builds a lane; the result must equal
 * simulate()'s byte for byte. It exists because SimResult does not
 * carry the skipped-cycle count.
 */
inline IdleSkipRun
runIdleSkip(const BenchmarkProfile &bench, const SimConfig &cfg,
            const DvmConfig &dvmCfg = {})
{
    std::uint64_t body =
        static_cast<std::uint64_t>(kSamples) * kInterval;
    std::uint64_t warmup = body / 8;
    InstructionStream stream(bench, warmup + body);
    SharedOpWindow ops(stream);
    BatchArena arena(Pipeline::arenaBytes(cfg));
    Pipeline pipe(cfg, dvmCfg, ops, arena);
    PowerModel power(cfg);
    pipe.runInstructions(warmup);
    IdleSkipRun run;
    for (std::size_t i = 0; i < kSamples; ++i) {
        pipe.resetInterval();
        std::uint64_t start = pipe.now();
        pipe.runInstructions(kInterval);
        run.result.intervals.push_back(
            assembleIntervalSample(pipe, power, cfg, start));
    }
    run.result.totalCycles = pipe.now();
    run.result.totalInstructions = pipe.committed() - warmup;
    run.result.dvmStats = pipe.dvm().stats();
    run.result.dvmFinalWqRatio = pipe.dvm().wqRatio();
    run.cycles = pipe.now();
    run.skipped = pipe.idleSkippedCycles();
    return run;
}

/** The checked-in table: tuple key -> digest. */
inline std::map<std::string, std::uint64_t>
load()
{
    std::map<std::string, std::uint64_t> out;
    std::ifstream in(std::string(WAVEDYN_TEST_DATA_DIR) +
                     "/sim_digests.txt");
    std::string line;
    while (std::getline(in, line)) {
        std::istringstream fields(line);
        std::string bench, cfg, dvmTag, hex;
        fields >> bench >> cfg >> dvmTag >> hex;
        out[bench + " " + cfg + " " + dvmTag] =
            std::stoull(hex, nullptr, 16);
    }
    return out;
}

} // namespace oracle
} // namespace wavedyn

#endif // WAVEDYN_TESTS_SIM_SIM_ORACLE_HH
