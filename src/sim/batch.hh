/**
 * @file
 * Config-batched simulation kernel: decode once, simulate many.
 *
 * A design-space sweep simulates the *same* (benchmark, samples,
 * intervalInstrs, dvm) run under many machine configurations.
 * simulateBatch() runs N such configurations as N pipeline lanes in
 * interval-grained lockstep:
 *
 *  - one SharedOpWindow decodes the instruction stream once and feeds
 *    every lane (workload/shared_decode.hh);
 *  - per-lane ROB/fetch rings and calendar node pools are carved from
 *    one batch-owned BatchArena slab (sim/batch_arena.hh);
 *  - each lane with the DVM controller off fast-forwards provably
 *    inert cycles with exact accounting (see the batched-kernel notes
 *    in sim/pipeline.hh);
 *  - the driver's per-lane bookkeeping (interval start cycles, power
 *    models, result assembly) is laid out in lane-major arrays.
 *
 * It holds the one warmup/interval loop: simulate() is a one-lane
 * batch.
 *
 * Bit-identity contract: a lane's SimResult depends only on its own
 * (benchmark, config, samples, intervalInstrs, dvm) run, never on the
 * batch width or on the other lanes, so simulate() and every lane of
 * every batch agree byte for byte. The frozen digest oracle
 * (tests/data/sim_digests.txt) pins what that result is. The lockstep
 * step is exactly one runInstructions() call per lane (the warmup,
 * then each interval) — never a finer quantum, because doCommit()
 * caps commits at the call target, so an artificial sub-interval
 * boundary would change machine state. Pinned by
 * tests/sim/batch_test.cc, tests/sim/digest_oracle_test.cc and the
 * golden report tests.
 */

#ifndef WAVEDYN_SIM_BATCH_HH
#define WAVEDYN_SIM_BATCH_HH

#include <cstddef>
#include <vector>

#include "dvm/controller.hh"
#include "sim/config.hh"
#include "sim/simulator.hh"
#include "workload/profile.hh"

namespace wavedyn
{

/**
 * Simulate every configuration in @p configs over the same run shape
 * and DVM policy, sharing one decode; results are indexed like
 * @p configs. Equivalent to (but faster than) calling simulate() per
 * config.
 */
std::vector<SimResult>
simulateBatch(const BenchmarkProfile &bench,
              const std::vector<SimConfig> &configs,
              std::size_t numIntervals, std::size_t intervalInstrs,
              const DvmConfig &dvm = {});

/**
 * Process-global batch width: how many cache-missing tasks sharing a
 * run key the RunScheduler folds into one simulateBatch() call.
 * Mirrors the currentJobs()/setJobs() pattern — the CLI configures it
 * once from --batch-width; unset (0) falls back to the
 * WAVEDYN_BATCH_WIDTH environment variable, then kDefaultBatchWidth.
 * 1 gives every task a batch of its own. Results are byte-identical
 * at every width — the knob only moves throughput.
 */
unsigned globalBatchWidth();
void setGlobalBatchWidth(unsigned width);

/** Built-in default batch width (what the CLI falls back to). */
inline constexpr unsigned kDefaultBatchWidth = 16;

} // namespace wavedyn

#endif // WAVEDYN_SIM_BATCH_HH
