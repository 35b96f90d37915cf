#include "sim/pipeline.hh"

#include <algorithm>
#include <cassert>

#include "workload/shared_decode.hh"

namespace wavedyn
{

double
AvfSample::combined(const SimConfig &cfg) const
{
    // Weight each structure by its entry count (bit widths assumed
    // comparable across IQ/ROB/LSQ entries).
    double bits = static_cast<double>(cfg.iqSize + cfg.robSize +
                                      cfg.lsqSize);
    return (iq * cfg.iqSize + rob * cfg.robSize + lsq * cfg.lsqSize) /
           bits;
}

Pipeline::Pipeline(const InstructionStream &stream, const SimConfig &cfg,
                   DvmConfig dvm)
    : Pipeline(stream, cfg, dvm, nullptr)
{
}

Pipeline::Pipeline(const InstructionStream &stream, const SimConfig &cfg,
                   DvmConfig dvm, BatchArena &arena)
    : Pipeline(stream, cfg, dvm, &arena)
{
}

Pipeline::Pipeline(const InstructionStream &stream, const SimConfig &cfg,
                   DvmConfig dvm, BatchArena *arena)
    : cfg(cfg),
      il1Cache(cfg.il1SizeKb, cfg.il1Assoc, cfg.il1LineBytes, "il1"),
      dl1Cache(cfg.dl1SizeKb, cfg.dl1Assoc, cfg.dl1LineBytes, "dl1"),
      l2Cache(cfg.l2SizeKb, cfg.l2Assoc, cfg.l2LineBytes, "l2"),
      itlb(cfg.itlbEntries, cfg.itlbAssoc, cfg.pageBytes, "itlb"),
      dtlb(cfg.dtlbEntries, cfg.dtlbAssoc, cfg.pageBytes, "dtlb"),
      gshare(cfg.bpredEntries, cfg.historyBits),
      btb(cfg.btbEntries, cfg.btbAssoc),
      ras(cfg.rasEntries),
      iqAvfAcc(cfg.iqSize), robAvfAcc(cfg.robSize),
      lsqAvfAcc(cfg.lsqSize),
      dvmCtl(dvm, cfg.iqSize),
      window(arena ? RingBuffer<InFlight>(windowSlots(cfg), *arena)
                   : RingBuffer<InFlight>(windowSlots(cfg))),
      // Longest schedulable latency: a load missing DTLB, DL1 and L2.
      // Fixed execution latencies are far shorter; the queue grows on
      // demand should a configuration ever exceed the bound. The
      // arena-mode node pool is bounded by the ROB: at most one
      // pending completion per issued, uncommitted entry.
      completions(arena
                      ? CalendarQueue(cfg.dl1Lat + cfg.tlbMissLat +
                                          cfg.l2Lat + cfg.memLat + 16,
                                      cfg.robSize + 1, *arena)
                      : CalendarQueue(cfg.dl1Lat + cfg.tlbMissLat +
                                      cfg.l2Lat + cfg.memLat + 16)),
      fetchCursor(stream)
{
    slotMask = window.capacity() - 1;
    wake.resize(window.capacity());
    iqBits.assign((window.capacity() + 63) / 64, 0);
    readyBits.assign(iqBits.size(), 0);
    scanCap = std::max(32u, 3 * cfg.fetchWidth);
    auto shift_of = [](unsigned v, unsigned &shift, bool &pow2) {
        if (v == 0 || (v & (v - 1)) != 0)
            return;
        pow2 = true;
        while ((1u << shift) < v)
            ++shift;
    };
    shift_of(cfg.il1LineBytes, il1LineShift, il1LinePow2);
    shift_of(cfg.pageBytes, pageShift, pagePow2);
}

std::size_t
Pipeline::arenaBytes(const SimConfig &cfg)
{
    std::uint64_t horizon =
        cfg.dl1Lat + cfg.tlbMissLat + cfg.l2Lat + cfg.memLat + 16;
    std::size_t bytes =
        static_cast<std::size_t>(ceilPow2(windowSlots(cfg))) *
        sizeof(InFlight);
    bytes += CalendarQueue::arenaBytes(horizon, cfg.robSize + 1);
    return bytes + 3 * alignof(InFlight); // per-array alignment slack
}

Pipeline::InFlight *
Pipeline::entryFor(std::uint64_t seq)
{
    if (seq < frontSeq)
        return nullptr;
    std::uint64_t idx = seq - frontSeq;
    if (idx >= robCount)
        return nullptr;
    return &window[idx];
}

template <typename Fn>
void
Pipeline::forEachIssuable(Fn &&fn)
{
    // Scan order is slot order starting at the front's slot, wrapping
    // once: word w0 from bit0 up, the remaining words, then w0 again
    // below bit0. The ring capacity is a power of two, so the word
    // count is too (one partial word when the ring has under 64
    // slots).
    const std::size_t words = iqBits.size();
    const std::size_t start = frontSeq & slotMask;
    const std::size_t w0 = start >> 6;
    const unsigned bit0 = start & 63;
    const bool capped = iqOcc > scanCap;
    unsigned left = readyCount; // ready residents not yet reached
    unsigned before = 0;        // residents in earlier words
    for (std::size_t k = 0; k <= words && left > 0; ++k) {
        std::size_t w = (w0 + k) & (words - 1);
        std::uint64_t part = k == 0       ? ~0ull << bit0
                             : k == words ? lowBits(bit0)
                                          : ~0ull;
        std::uint64_t iq = iqBits[w] & part;
        std::uint64_t ready = readyBits[w] & part;
        while (ready != 0) {
            unsigned b = ctz64(ready);
            ready &= ready - 1;
            if (capped && before + popcount64(iq & lowBits(b)) >= scanCap)
                return;
            --left;
            if (!fn((w << 6) | b))
                return;
        }
        if (capped)
            before += popcount64(iq);
    }
}

unsigned
Pipeline::loadLatency(std::uint64_t addr)
{
    unsigned lat = cfg.dl1Lat;
    ++activity.dtlbAccesses;
    if (!dtlb.access(addr)) {
        ++activity.dtlbMisses;
        lat += cfg.tlbMissLat;
    }
    ++activity.dl1Accesses;
    if (!dl1Cache.access(addr)) {
        ++activity.dl1Misses;
        ++activity.l2Accesses;
        if (!l2Cache.access(addr)) {
            ++activity.l2Misses;
            ++activity.memAccesses;
            lat += cfg.l2Lat + cfg.memLat;
            std::uint64_t done = cycle + lat;
            l2MissOutstandingUntil =
                std::max(l2MissOutstandingUntil, done);
        } else {
            lat += cfg.l2Lat;
        }
    }
    return lat;
}

void
Pipeline::doCompletions()
{
    completions.drain(cycle, [&](std::uint64_t seq) {
        InFlight *e = entryFor(seq);
        if (!e || e->aceCompleted)
            return;
        e->aceCompleted = true;
        // ROB entry: in-flight ACE state shrinks to the pending result.
        robAvfAcc.release(ace.robInFlight(e->op.cls));
        robAvfAcc.occupy(ace.robCompleted(e->op.cls));
        // Loads free their LSQ slot at writeback.
        if (e->op.cls == InstrClass::Load && e->inLsq) {
            e->inLsq = false;
            assert(lsqOcc > 0);
            --lsqOcc;
            lsqAvfAcc.release(ace.lsq(InstrClass::Load));
        }
        // Release the consumers waiting on this result.
        WakeSlot &p = wake[seq & slotMask];
        p.done = 1;
        for (std::uint32_t link = p.head; link != kNoLink;) {
            std::uint32_t c = link >> 1;
            link = wake[c].next[link & 1];
            if (--wake[c].waiting == 0) {
                readyBits[c >> 6] |= 1ull << (c & 63);
                ++readyCount;
            }
        }
        p.head = kNoLink;
    });
}

void
Pipeline::doCommit()
{
    unsigned done = 0;
    while (done < cfg.fetchWidth && robCount > 0 &&
           totalCommitted < committedTarget) {
        InFlight &e = window.front();
        if (!e.issued || e.completeCycle > cycle)
            break;

        // Stores write the data cache at commit (no stall; write
        // buffering assumed).
        if (e.op.cls == InstrClass::Store) {
            ++activity.dl1Accesses;
            if (!dl1Cache.access(e.op.effAddr)) {
                ++activity.dl1Misses;
                ++activity.l2Accesses;
                if (!l2Cache.access(e.op.effAddr)) {
                    ++activity.l2Misses;
                    ++activity.memAccesses;
                }
            }
            if (e.inLsq) {
                assert(lsqOcc > 0);
                --lsqOcc;
                lsqAvfAcc.release(ace.lsq(InstrClass::Store));
            }
        }

        robAvfAcc.release(e.aceCompleted ? ace.robCompleted(e.op.cls)
                                         : ace.robInFlight(e.op.cls));
        ++activity.committed;
        ++totalCommitted;
        ++done;
        window.pop_front();
        --robCount;
        ++frontSeq;
    }
}

void
Pipeline::doIssue()
{
    const unsigned issue_width = cfg.fetchWidth;
    const std::uint64_t len = iqOcc; // residents at the stage's start

    unsigned fu_int_alu = 0, fu_int_mul = 0;
    unsigned fu_fp_alu = 0, fu_fp_mul = 0;
    unsigned fu_mem = 0;
    unsigned issued = 0;
    std::uint64_t ready_seen = 0;

    forEachIssuable([&](std::size_t slot) {
        ++ready_seen;
        InFlight &e = window[(slot - frontSeq) & slotMask];

        // Per-class functional unit limits.
        bool fu_ok = true;
        switch (e.op.cls) {
          case InstrClass::IntAlu:
          case InstrClass::Branch:
          case InstrClass::Call:
          case InstrClass::Return:
            fu_ok = fu_int_alu < cfg.intAluCount;
            if (fu_ok)
                ++fu_int_alu;
            break;
          case InstrClass::IntMul:
            fu_ok = fu_int_mul < cfg.intMulCount;
            if (fu_ok)
                ++fu_int_mul;
            break;
          case InstrClass::FpAlu:
            fu_ok = fu_fp_alu < cfg.fpAluCount;
            if (fu_ok)
                ++fu_fp_alu;
            break;
          case InstrClass::FpMul:
            fu_ok = fu_fp_mul < cfg.fpMulCount;
            if (fu_ok)
                ++fu_fp_mul;
            break;
          case InstrClass::Load:
          case InstrClass::Store:
            fu_ok = fu_mem < cfg.memPortCount;
            if (fu_ok)
                ++fu_mem;
            break;
        }
        if (!fu_ok)
            return true;

        // Issue.
        unsigned lat;
        switch (e.op.cls) {
          case InstrClass::Load:
            lat = loadLatency(e.op.effAddr);
            ++activity.issuedMem;
            break;
          case InstrClass::Store:
            lat = 1; // address generation; data written at commit
            ++activity.issuedMem;
            break;
          case InstrClass::IntMul:
            lat = executionLatency(e.op.cls);
            ++activity.issuedIntMul;
            break;
          case InstrClass::FpAlu:
            lat = executionLatency(e.op.cls);
            ++activity.issuedFpAlu;
            break;
          case InstrClass::FpMul:
            lat = executionLatency(e.op.cls);
            ++activity.issuedFpMul;
            break;
          case InstrClass::Branch:
          case InstrClass::Call:
          case InstrClass::Return:
            lat = executionLatency(e.op.cls);
            ++activity.issuedControl;
            break;
          default:
            lat = executionLatency(e.op.cls);
            ++activity.issuedIntAlu;
            break;
        }
        if (lat < 1)
            lat = 1;
        e.issued = true;
        e.completeCycle = cycle + lat;
        completions.schedule(cycle, e.completeCycle, e.seq);

        // Operand reads / result write accounting.
        if (e.op.dep1)
            ++activity.regReads;
        if (e.op.dep2)
            ++activity.regReads;
        if (e.op.cls != InstrClass::Store && !isControl(e.op.cls))
            ++activity.regWrites;

        // Free the IQ slot.
        iqBits[slot >> 6] &= ~(1ull << (slot & 63));
        readyBits[slot >> 6] &= ~(1ull << (slot & 63));
        --readyCount;
        assert(iqOcc > 0);
        --iqOcc;
        iqAvfAcc.release(ace.iqWaiting(e.op.cls));

        // A mispredicted branch un-blocks fetch when it resolves.
        if (e.mispredicted) {
            fetchWaitingResolve = false;
            fetchBlockedUntil = std::max(
                fetchBlockedUntil,
                e.completeCycle + cfg.frontEndDepth);
        }
        return ++issued < issue_width;
    });

    // The DVM observations keep the counts of the reference
    // oldest-first scan (see "Hot-path design notes"): every resident
    // it visited counts as ready or waiting, residents past its stop
    // count as waiting, except the one that tripped the cap.
    lastReadyCount = ready_seen;
    lastWaitingCount = len - ready_seen;
    if (issued < issue_width && len > scanCap)
        --lastWaitingCount;
}

void
Pipeline::doDispatch()
{
    if (dvmCtl.enabled() &&
        dvmCtl.shouldStallDispatch(iqAvfAcc.occupancy(),
                                   lastWaitingCount, lastReadyCount,
                                   cycle < l2MissOutstandingUntil))
        return;

    unsigned done = 0;
    while (done < cfg.fetchWidth && robCount < window.size()) {
        InFlight &e = window[robCount];
        if (robCount >= cfg.robSize)
            break;
        if (iqOcc >= cfg.iqSize)
            break;
        bool mem = isMem(e.op.cls);
        if (mem && lsqOcc >= cfg.lsqSize)
            break;

        e.seq = frontSeq + robCount;
        ++iqOcc;
        iqAvfAcc.occupy(ace.iqWaiting(e.op.cls));
        robAvfAcc.occupy(ace.robInFlight(e.op.cls));
        if (mem) {
            e.inLsq = true;
            ++lsqOcc;
            lsqAvfAcc.occupy(ace.lsq(e.op.cls));
        }
        ++activity.dispatched;

        // Hang each operand whose producer is still in the ROB and has
        // not written back on that producer's wake list.
        std::uint64_t age = robCount; // == e.seq - frontSeq
        std::uint32_t slot = static_cast<std::uint32_t>(e.seq & slotMask);
        WakeSlot &w = wake[slot];
        w.head = kNoLink;
        w.waiting = 0;
        w.done = 0;
        const std::uint32_t deps[2] = {e.op.dep1, e.op.dep2};
        for (std::uint32_t k = 0; k < 2; ++k) {
            if (deps[k] == 0 || deps[k] > age)
                continue; // no operand, or producer committed
            WakeSlot &p = wake[(e.seq - deps[k]) & slotMask];
            if (p.done)
                continue;
            w.next[k] = p.head;
            p.head = (slot << 1) | k;
            ++w.waiting;
        }
        iqBits[slot >> 6] |= 1ull << (slot & 63);
        if (w.waiting == 0) {
            readyBits[slot >> 6] |= 1ull << (slot & 63);
            ++readyCount;
        }

        ++robCount;
        ++done;
    }
}

void
Pipeline::doFetch()
{
    if (fetchWaitingResolve || cycle < fetchBlockedUntil)
        return;

    const std::size_t fq_cap = 2 * cfg.fetchWidth;
    unsigned fetched = 0;
    while (fetched < cfg.fetchWidth && window.size() - robCount < fq_cap) {
        InFlight &e = window.push_back(InFlight{});
        // Batched lanes read the shared decode window by absolute
        // index — the same op the private cursor's next() would have
        // produced (workload/shared_decode.hh pins the identity).
        e.op = sharedOps ? sharedOps->opAt(fetchPos)
                         : fetchCursor.next();
        ++fetchPos;

        // Instruction cache: one access per new line.
        std::uint64_t line = il1LinePow2 ? e.op.pc >> il1LineShift
                                         : e.op.pc / cfg.il1LineBytes;
        bool stop_after = false;
        if (line != lastFetchLine) {
            lastFetchLine = line;
            ++activity.il1Accesses;
            std::uint64_t page = pagePow2 ? e.op.pc >> pageShift
                                          : e.op.pc / cfg.pageBytes;
            if (page != lastFetchPage) {
                lastFetchPage = page;
                ++activity.itlbAccesses;
                if (!itlb.access(e.op.pc)) {
                    ++activity.itlbMisses;
                    fetchBlockedUntil = std::max(
                        fetchBlockedUntil, cycle + cfg.tlbMissLat);
                    stop_after = true;
                }
            }
            if (!il1Cache.access(e.op.pc)) {
                ++activity.il1Misses;
                ++activity.l2Accesses;
                unsigned lat;
                if (!l2Cache.access(e.op.pc)) {
                    ++activity.l2Misses;
                    ++activity.memAccesses;
                    lat = cfg.l2Lat + cfg.memLat;
                } else {
                    lat = cfg.l2Lat;
                }
                fetchBlockedUntil = std::max(fetchBlockedUntil,
                                             cycle + lat);
                stop_after = true;
            }
        }

        // Control prediction.
        if (isControl(e.op.cls)) {
            if (e.op.cls == InstrClass::Branch) {
                ++activity.bpredLookups;
                ++bpStats.lookups;
                bool predicted =
                    gshare.predictThenUpdate(e.op.pc, e.op.branchTaken);
                if (predicted != e.op.branchTaken) {
                    ++bpStats.directionMispredicts;
                    ++activity.bpredMispredicts;
                    e.mispredicted = true;
                    fetchWaitingResolve = true;
                    stop_after = true;
                } else if (e.op.branchTaken) {
                    ++activity.btbLookups;
                    std::uint64_t target = 0;
                    bool hit = btb.lookup(e.op.pc, target) &&
                               target == e.op.branchTarget;
                    if (!hit) {
                        ++bpStats.targetMispredicts;
                        fetchBlockedUntil = std::max(
                            fetchBlockedUntil,
                            cycle + cfg.btbMissPenalty);
                        stop_after = true;
                    }
                    btb.update(e.op.pc, e.op.branchTarget);
                    // A taken branch ends the fetch group.
                    stop_after = true;
                }
            } else if (e.op.cls == InstrClass::Call) {
                ras.push(e.op.pc + 4);
                ++activity.btbLookups;
                std::uint64_t target = 0;
                if (!btb.lookup(e.op.pc, target)) {
                    fetchBlockedUntil = std::max(
                        fetchBlockedUntil, cycle + cfg.btbMissPenalty);
                    stop_after = true;
                }
                btb.update(e.op.pc, e.op.branchTarget);
            } else { // Return
                std::uint64_t target = 0;
                if (!ras.pop(target)) {
                    ++bpStats.rasUnderflows;
                    fetchBlockedUntil = std::max(
                        fetchBlockedUntil, cycle + cfg.frontEndDepth);
                    stop_after = true;
                }
            }
        }

        ++activity.fetched;
        ++fetched;
        if (stop_after)
            break;
    }
}

void
Pipeline::cycleOnce()
{
    doCompletions();
    doCommit();
    doIssue();
    doDispatch();
    doFetch();

    // End-of-cycle accounting.
    activity.iqOccupancySum += iqOcc;
    activity.robOccupancySum += robCount;
    activity.lsqOccupancySum += lsqOcc;
    iqAvfAcc.tick();
    robAvfAcc.tick();
    lsqAvfAcc.tick();
    ++activity.cycles;
    ++cycle;
}

std::uint64_t
Pipeline::idleCycles()
{
    // Each stage in turn must be provably inert at the current cycle
    // AND stay inert until some explicit bound — otherwise 0. All the
    // state the checks read is frozen across inert cycles: completion,
    // commit, issue, dispatch and fetch are the only mutators, each is
    // blocked below, and the next completion bounds the skip. The DVM
    // controller is disabled whenever this runs (setIdleSkip), so
    // dispatch gating never observes a cycle.

    // Commit: the head must be absent, unissued, or incomplete.
    if (robCount > 0) {
        const InFlight &h = window.front();
        if (h.issued && h.completeCycle <= cycle)
            return 0;
    }

    // Dispatch: the in-order front must be blocked by a full
    // downstream structure (the loop stops at the first such entry).
    if (robCount < window.size()) {
        const InFlight &f = window[robCount];
        if (robCount < cfg.robSize && iqOcc < cfg.iqSize &&
            !(isMem(f.op.cls) && lsqOcc >= cfg.lsqSize))
            return 0;
    }

    // Fetch: blocked on a mispredict resolution (cleared only by
    // issue, inert below), a full fetch queue (drained only by
    // dispatch, blocked above), or a time bound.
    bool fetch_time_blocked = false;
    if (!fetchWaitingResolve &&
        window.size() - robCount < 2 * cfg.fetchWidth) {
        if (cycle >= fetchBlockedUntil)
            return 0;
        fetch_time_blocked = true;
    }

    // Issue: inert exactly when no ready resident is among the oldest
    // scanCap (with no more residents than that, when none is ready).
    if (readyCount > 0) {
        if (iqOcc <= scanCap)
            return 0;
        bool any = false;
        forEachIssuable([&](std::size_t) {
            any = true;
            return false;
        });
        if (any)
            return 0;
    }

    // Everything is inert. The machine state cannot change before the
    // earliest of the next completion event and the fetch unblock.
    // (Completions at the current cycle have not drained yet —
    // cycleOnce does that — so the event scan starts at `cycle`
    // itself and a due event forces a normal cycle.)
    std::uint64_t target = fetch_time_blocked ? fetchBlockedUntil : ~0ull;
    std::uint64_t ev = completions.nextEventCycle(cycle, target);
    if (ev == cycle)
        return 0;
    if (ev < target)
        target = ev;
    if (target == ~0ull || target <= cycle)
        return 0; // no provable bound: run the cycle normally
    return target - cycle;
}

void
Pipeline::skipCycles(std::uint64_t k)
{
    // Occupancies are frozen across the skipped range, so the integer
    // sums are exact; the FP AVF accumulation replays the per-cycle
    // adds bitwise (AvfAccumulator::tickMany).
    activity.iqOccupancySum += static_cast<std::uint64_t>(iqOcc) * k;
    activity.robOccupancySum +=
        static_cast<std::uint64_t>(robCount) * k;
    activity.lsqOccupancySum += static_cast<std::uint64_t>(lsqOcc) * k;
    AvfAccumulator::tickMany(iqAvfAcc, robAvfAcc, lsqAvfAcc, k);
    activity.cycles += k;
    cycle += k;
    idleSkipped += k;
}

void
Pipeline::runInstructions(std::uint64_t count)
{
    committedTarget = totalCommitted + count;
    while (totalCommitted < committedTarget) {
        std::uint64_t k = idleSkip ? idleCycles() : 0;
        if (k > 0)
            skipCycles(k);
        else
            cycleOnce();
    }
}

AvfSample
Pipeline::intervalAvf() const
{
    AvfSample s;
    s.iq = iqAvfAcc.value();
    s.rob = robAvfAcc.value();
    s.lsq = lsqAvfAcc.value();
    return s;
}

void
Pipeline::resetInterval()
{
    activity.reset();
    iqAvfAcc.resetWindow();
    robAvfAcc.resetWindow();
    lsqAvfAcc.resetWindow();
}

} // namespace wavedyn
