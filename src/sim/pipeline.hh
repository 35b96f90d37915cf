/**
 * @file
 * Cycle-level out-of-order pipeline model.
 *
 * Stage structure per cycle (evaluated oldest-work-first so the model
 * is deadlock free):
 *
 *   1. completion events (writeback): ROB entries transition to
 *      completed, loads release their LSQ entry;
 *   2. commit: in order, up to commit width, stores write the DL1;
 *   3. issue: oldest-first wakeup/select over the IQ with per-class
 *      functional unit limits; loads walk DTLB/DL1/L2/memory;
 *   4. dispatch: fetch buffer -> ROB/IQ/LSQ, gated by the DVM policy;
 *   5. fetch: IL1/ITLB access, gshare + BTB + RAS prediction; direction
 *      mispredicts block fetch until the branch resolves.
 *
 * The model is trace driven (committed path only); wrong-path work is
 * approximated by the front-end redirect bubbles. Store-to-load
 * forwarding conflicts and write-back traffic are not modelled; see
 * DESIGN.md for the substitution notes.
 *
 * Hot-path design notes
 * ---------------------
 * Every campaign, exploration round and figure bench bottoms out in
 * this cycle loop, so its data structures are chosen for the per-cycle
 * walks rather than for generality. All of the following preserve
 * simulated results bit for bit (pinned by the golden report tests
 * and the frozen SimResult digests in tests/data/sim_digests.txt):
 *
 *  - The ROB and the fetch queue share one fixed-capacity
 *    power-of-two RingBuffer (ring_buffer.hh) sized from SimConfig at
 *    construction: the ROB is its first robCount entries and fetched
 *    ops queue behind them, so fetch writes each op in place and
 *    dispatch just advances robCount. No per-push allocation, and the
 *    commit walk touches contiguous memory. An entry's slot is
 *    seq & slotMask for its whole life (the ring's head advances with
 *    frontSeq).
 *  - Issue is event driven. At dispatch, each operand whose producer
 *    has not written back hangs an intrusive link
 *    (consumer slot << 1 | operand) on the producer's slot and counts
 *    toward the consumer's `waiting`; the "written back?" test reads
 *    a per-slot byte, not the window entry. The completion drain
 *    releases the producer's links, and a consumer whose count
 *    reaches zero sets its bit in the readyBits slot bitset. Readiness
 *    is therefore exact at every cycle, with no per-cycle producer
 *    walk.
 *  - The issue stage walks the iqBits (unissued residents) and
 *    readyBits slot bitsets oldest first from frontSeq's slot,
 *    visiting only ready residents. The reference semantics is an
 *    oldest-first scan of the oldest scanCap residents, so a ready
 *    bit is in range when fewer than scanCap residents (a popcount)
 *    precede it; FU arbitration and the issue-width stop are the
 *    scan's.
 *  - The DVM observations that scan made are closed forms of the
 *    resident count `len` and the ready residents visited:
 *    waiting = len - ready when the walk stops on the issue width or
 *    len <= scanCap, and len - 1 - ready when the cap cuts the walk
 *    (the scan counted the entry that tripped the cap as scanned but
 *    not waiting).
 *  - Completion events live in a CalendarQueue (calendar_queue.hh):
 *    execution latencies are bounded by l2Lat + memLat + tlbMissLat,
 *    so per-cycle buckets replace the former std::priority_queue and
 *    schedule/drain are O(1) amortised. Buckets are sorted before
 *    draining because within-cycle completion order feeds
 *    floating-point AVF accumulation and is therefore bit-significant.
 *  - Fetch reads decoded ops from a SharedOpWindow by absolute
 *    dynamic index; the window decodes through a streaming
 *    InstructionStream::Cursor instead of random-access at(i), which
 *    re-derives segment constants only at phase/modulation boundaries
 *    (see workload/stream.hh).
 *
 * Batched-kernel notes (sim/batch.hh)
 * -----------------------------------
 * simulateBatch() runs N configurations of the same run as N Pipeline
 * lanes in interval-grained lockstep; simulate() is its one-lane
 * case. The one constructor wires three mechanisms into every
 * pipeline, all bit-identity-preserving:
 *
 *  - Shared decode: fetch reads the batch's SharedOpWindow
 *    (workload/shared_decode.hh), so the stream is decoded once per
 *    batch instead of once per lane. fetchPosition() lets
 *    simulateBatch() trim the window to the slowest lane.
 *  - Arena state: the ROB/fetch ring and the calendar queue's bounded
 *    node pool (pending completions never exceed robSize — one per
 *    issued, uncommitted entry) are carved from one batch-owned
 *    BatchArena slab instead of N sets of heap allocations. The
 *    per-run state lives exactly as long as the batch, so teardown is
 *    one slab release.
 *  - Idle-cycle fast-forward: runInstructions() jumps over provably
 *    inert cycles — every stage blocked, with the earliest possible
 *    state change bounded by the next completion event or fetch
 *    unblock — in one step, with exact integer occupancy accounting
 *    (occ * k) and bitwise-exact AVF accumulation
 *    (AvfAccumulator::tickMany replays the FP adds with a fixed-point
 *    early exit). Readiness is exact and only a completion changes
 *    it, so the issue stage is inert exactly when no ready resident
 *    sits among the oldest scanCap: every dead cycle is skippable.
 *    The skip is armed exactly when the DVM controller is disabled:
 *    an enabled controller observes and mutates its window state
 *    every cycle, so no cycle is inert. High-CPI (memory-bound)
 *    configurations spend most cycles waiting on memory, which is
 *    where the skip pays most.
 *
 * Per-cycle machine state stays laid out per lane (an AoS of
 * pipelines): each lane's control flow diverges after the first
 * config-dependent stall, so there is no cross-lane per-cycle loop to
 * vectorise. The struct-of-arrays layout lives one level up, in the
 * batch driver's per-lane bookkeeping and interval-sample assembly
 * arrays (sim/batch.cc), where iteration really is lane-major.
 *
 * The reference for every result is the frozen digest oracle
 * (tests/data/sim_digests.txt): every mechanism here must reproduce
 * its digests exactly rather than redefine them. The golden report
 * tests pin the same bytes end to end.
 *
 * bench/sim_throughput.cc measures the resulting simulate()
 * instructions/second and records them in BENCH_sim.json.
 */

#ifndef WAVEDYN_SIM_PIPELINE_HH
#define WAVEDYN_SIM_PIPELINE_HH

#include <cstdint>
#include <vector>

#include "avf/estimator.hh"
#include "dvm/controller.hh"
#include "power/model.hh"
#include "sim/batch_arena.hh"
#include "sim/bpred.hh"
#include "sim/cache.hh"
#include "sim/calendar_queue.hh"
#include "sim/config.hh"
#include "sim/ring_buffer.hh"
#include "workload/stream.hh"

namespace wavedyn
{

class SharedOpWindow;

/** AVF values of the tracked structures over a window. */
struct AvfSample
{
    double iq = 0.0;
    double rob = 0.0;
    double lsq = 0.0;

    /** Bit-weighted combination used as the "processor AVF" metric. */
    double combined(const SimConfig &cfg) const;
};

/**
 * The out-of-order core. Drives one benchmark's instruction stream
 * through the machine; exposes per-interval activity and AVF windows.
 */
class Pipeline
{
  public:
    /**
     * Fetch reads decoded ops from @p ops by absolute dynamic index;
     * per-run rings and the calendar node pool are carved from
     * @p arena (see "Batched-kernel notes"). The idle fast-forward is
     * armed exactly when @p dvm is disabled. The pipeline must not
     * outlive @p ops or @p arena, and @p ops must retain every index
     * from fetchPosition() on.
     */
    Pipeline(const SimConfig &cfg, DvmConfig dvm, SharedOpWindow &ops,
             BatchArena &arena);

    /** Simulate until `count` more instructions commit. */
    void runInstructions(std::uint64_t count);

    /** Dynamic index the next fetched op will have. */
    std::uint64_t fetchPosition() const { return fetchPos; }

    /** Arena bytes one lane of @p cfg carves (batch slab sizing). */
    static std::size_t arenaBytes(const SimConfig &cfg);

    /** Activity accumulated since the last interval reset. */
    const ActivityCounts &intervalActivity() const { return activity; }

    /** AVF over the current interval window. */
    AvfSample intervalAvf() const;

    /** Close the interval: clears activity and AVF windows. */
    void resetInterval();

    /** Cycles elapsed since construction. */
    std::uint64_t now() const { return cycle; }

    /** Cycles covered by the idle fast-forward (0 with DVM enabled). */
    std::uint64_t idleSkippedCycles() const { return idleSkipped; }

    /** Instructions committed since construction. */
    std::uint64_t committed() const { return totalCommitted; }

    /** DVM controller state (valid when DVM configured). */
    const DvmController &dvm() const { return dvmCtl; }

    /** Cache hierarchies, exposed for tests and diagnostics. */
    const Cache &il1() const { return il1Cache; }
    const Cache &dl1() const { return dl1Cache; }
    const Cache &l2() const { return l2Cache; }
    const BpredStats &bpredStats() const { return bpStats; }

  private:
    struct InFlight
    {
        MicroOp op;
        std::uint64_t seq = 0;
        std::uint64_t completeCycle = ~0ull;
        bool issued = false;
        bool inLsq = false;
        bool aceCompleted = false; //!< ROB ACE transition applied
        bool mispredicted = false; //!< direction mispredict at fetch
    };

    /** End of a wake list. */
    static constexpr std::uint32_t kNoLink = ~0u;

    /**
     * Wakeup state of one ROB slot (see "Hot-path design notes").
     * Links are (consumer slot << 1 | operand); next[operand] chains
     * the producer's list through the consumer's own slot.
     */
    struct WakeSlot
    {
        std::uint32_t head = kNoLink; //!< consumers waiting on this slot
        std::uint32_t next[2] = {kNoLink, kNoLink};
        std::uint8_t waiting = 0; //!< operands not yet written back
        std::uint8_t done = 0;    //!< this slot's result wrote back
    };

    void cycleOnce();
    void doCompletions();
    void doCommit();
    void doIssue();
    void doDispatch();
    void doFetch();

    /**
     * Cycles from `cycle` during which every stage is provably inert
     * (0 = this cycle must run normally). Only meaningful with the
     * DVM controller disabled — see idleSkip.
     */
    std::uint64_t idleCycles();

    /** Account @p k inert cycles exactly and advance the clock. */
    void skipCycles(std::uint64_t k);

    /**
     * Longest schedulable latency: a load missing DTLB, DL1 and L2.
     * Fixed execution latencies are far shorter; the completion queue
     * grows on demand should a configuration ever exceed the bound.
     */
    static std::uint64_t
    completionHorizon(const SimConfig &cfg)
    {
        return cfg.dl1Lat + cfg.tlbMissLat + cfg.l2Lat + cfg.memLat + 16;
    }

    /** Ring capacity: the ROB plus a full fetch queue behind it. */
    static std::size_t
    windowSlots(const SimConfig &cfg)
    {
        return cfg.robSize + 2 * static_cast<std::size_t>(cfg.fetchWidth);
    }

    /** ROB entry for a sequence number, or nullptr if committed. */
    InFlight *entryFor(std::uint64_t seq);

    /**
     * Call fn(slot) for each ready IQ resident among the oldest
     * scanCap residents, oldest first, until fn returns false.
     */
    template <typename Fn>
    void forEachIssuable(Fn &&fn);

    /** Load latency through DTLB/DL1/L2/memory; updates stats. */
    unsigned loadLatency(std::uint64_t addr);

    SimConfig cfg;

    Cache il1Cache, dl1Cache, l2Cache;
    Tlb itlb, dtlb;
    GsharePredictor gshare;
    Btb btb;
    ReturnAddressStack ras;
    BpredStats bpStats;

    AceWeights ace;
    AvfAccumulator iqAvfAcc, robAvfAcc, lsqAvfAcc;
    DvmController dvmCtl;

    /**
     * The ROB, oldest first, in window[0, robCount); the fetch queue
     * (fetched, not yet dispatched) follows it in
     * window[robCount, size()). Fetch writes ops straight into the
     * tail and dispatch only advances robCount.
     */
    RingBuffer<InFlight> window;
    std::size_t robCount = 0;
    std::uint64_t frontSeq = 0; //!< seq of window.front()
    CalendarQueue completions;
    SharedOpWindow &sharedOps;  //!< the batch's decoded ops
    std::uint64_t fetchPos = 0; //!< ops fetched so far
    const bool idleSkip;        //!< fast-forward armed (DVM off)
    std::uint64_t idleSkipped = 0; //!< cycles fast-forwarded over

    // Event-driven issue state, indexed by ROB slot (seq & slotMask).
    std::uint64_t slotMask = 0;
    std::vector<WakeSlot> wake;
    std::vector<std::uint64_t> iqBits;    //!< unissued IQ residents
    std::vector<std::uint64_t> readyBits; //!< ...whose operands wrote back
    unsigned readyCount = 0;              //!< set bits in readyBits
    unsigned scanCap = 0; //!< residents the issue scan considers

    std::uint64_t cycle = 0;
    std::uint64_t totalCommitted = 0;
    std::uint64_t committedTarget = 0;

    unsigned iqOcc = 0;
    unsigned lsqOcc = 0;

    // Front-end stall state.
    std::uint64_t fetchBlockedUntil = 0;
    bool fetchWaitingResolve = false;
    std::uint64_t lastFetchLine = ~0ull;
    std::uint64_t lastFetchPage = ~0ull;
    // pc -> line/page number: shift when the size is a power of two
    // (identical quotient by definition), divide otherwise. Both run
    // once per fetched op, so keep them off the divider.
    unsigned il1LineShift = 0; //!< valid iff il1LinePow2
    unsigned pageShift = 0;    //!< valid iff pagePow2
    bool il1LinePow2 = false;
    bool pagePow2 = false;

    // DVM observations from the previous issue stage.
    std::uint64_t lastReadyCount = 0;
    std::uint64_t lastWaitingCount = 0;
    std::uint64_t l2MissOutstandingUntil = 0;

    ActivityCounts activity;
};

} // namespace wavedyn

#endif // WAVEDYN_SIM_PIPELINE_HH
