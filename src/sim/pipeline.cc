#include "sim/pipeline.hh"

#include <algorithm>
#include <cassert>
#include <cstring>

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
      window(arena ? RingBuffer<InFlight>(cfg.robSize, *arena)
                   : RingBuffer<InFlight>(cfg.robSize)),
      fetchQueue(arena ? RingBuffer<InFlight>(2 * cfg.fetchWidth, *arena)
                       : RingBuffer<InFlight>(2 * cfg.fetchWidth)),
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
    scanSlotMask = window.capacity() - 1;
    notReadyA.assign(scanSlotMask + 1, 0);
    iqSeqA.reserve(256 + cfg.iqSize);
    iqNrbA.reserve(256 + cfg.iqSize);
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
        static_cast<std::size_t>(ceilPow2(cfg.robSize)) *
        sizeof(InFlight);
    bytes += static_cast<std::size_t>(ceilPow2(2 * cfg.fetchWidth)) *
             sizeof(InFlight);
    bytes += CalendarQueue::arenaBytes(horizon, cfg.robSize + 1);
    return bytes + 4 * alignof(InFlight); // per-array alignment slack
}

Pipeline::InFlight *
Pipeline::entryFor(std::uint64_t seq)
{
    if (seq < frontSeq)
        return nullptr;
    std::uint64_t idx = seq - frontSeq;
    if (idx >= window.size())
        return nullptr;
    return &window[idx];
}

bool
Pipeline::depsReady(InFlight &e, std::uint64_t &scanMemo)
{
    bool ready = true;
    std::uint64_t not_before = cycle + 1;
    for (std::uint32_t dep : {e.op.dep1, e.op.dep2}) {
        if (dep == 0)
            continue;
        std::uint64_t pseq = e.seq - dep;
        if (pseq < frontSeq)
            continue; // producer committed long ago
        std::uint64_t idx = pseq - frontSeq;
        if (idx >= window.size())
            continue;
        const InFlight &p = window[idx];
        if (!p.issued) {
            ready = false;
            // The producer itself cannot issue before its own memo
            // bound, so this entry cannot be ready before one cycle
            // later. Bounds only ever hold cycles that were sound
            // when written, and readiness is monotone in time, so a
            // stale producer bound is still a valid lower bound —
            // and the oldest-first scan refreshes producers before
            // their consumers, collapsing whole dependence chains to
            // near-exact bounds in a single pass.
            std::uint64_t pn = notReadyA[pseq & scanSlotMask];
            if (pn + 1 > not_before)
                not_before = pn + 1;
        } else if (p.completeCycle > cycle) {
            ready = false;
            if (p.completeCycle > not_before)
                not_before = p.completeCycle;
        }
    }
    if (!ready) {
        // Dual write: the scan lane copy drives the skip loop, the
        // seq-indexed copy serves producer reads above.
        notReadyA[e.seq & scanSlotMask] = not_before;
        scanMemo = not_before;
    }
    return ready;
}

void
Pipeline::iqListAppend(InFlight &e)
{
    notReadyA[e.seq & scanSlotMask] = 0; // readiness unknown
    // Reclaim the dead prefix before the vectors grow past a couple
    // of cache lines of garbage; the live span is at most iqSize.
    if (iqStart >= 256) {
        iqSeqA.erase(iqSeqA.begin(),
                     iqSeqA.begin() +
                         static_cast<std::ptrdiff_t>(iqStart));
        iqNrbA.erase(iqNrbA.begin(),
                     iqNrbA.begin() +
                         static_cast<std::ptrdiff_t>(iqStart));
        iqStart = 0;
    }
    iqSeqA.push_back(e.seq);
    iqNrbA.push_back(0);
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
    });
}

void
Pipeline::doCommit()
{
    unsigned done = 0;
    while (done < cfg.fetchWidth && !window.empty() &&
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
        ++frontSeq;
    }
}

void
Pipeline::doIssue()
{
    const unsigned issue_width = cfg.fetchWidth;
    const unsigned scan_cap = std::max(32u, 3 * issue_width);

    if (cycle < issueSleepUntil) {
        // Asleep: every IQ resident is provably unready, so the scan
        // would issue nothing and observe ready=0 and — visiting
        // min(len, cap) entries as waiting, charging the rest to the
        // beyond-cap remainder — a waiting count of len (len <= cap)
        // or len - 1 (len > cap). len is frozen while asleep.
        lastReadyCount = 0;
        lastWaitingCount = iqOcc <= scan_cap
                               ? iqOcc
                               : static_cast<std::uint64_t>(iqOcc) - 1;
        return;
    }

    unsigned fu_int_alu = 0, fu_int_mul = 0;
    unsigned fu_fp_alu = 0, fu_fp_mul = 0;
    unsigned fu_mem = 0;
    unsigned issued = 0, scanned = 0;
    std::uint64_t ready_seen = 0, waiting_seen = 0;
    std::uint64_t wake = ~0ull; //!< earliest bound among the unready

    // Walk the unissued IQ residents oldest first. The dense arrays
    // hold exactly the entries the historical full-window walk
    // considered (inIq && !issued), in the same seq order, so the
    // scan cap, FU arbitration and DVM observations are unchanged.
    // Issued entries are removed by compacting in place: survivors
    // are written back through `wr`, and the unvisited tail (early
    // break on the cap or the issue width) is shifted down after the
    // loop.
    std::size_t rd = iqStart, wr = iqStart, len = iqSeqA.size();
    for (; rd < len && issued < issue_width; ++rd) {
        // Fast-forward over runs of memo-waiting entries — the bulk
        // of every scan — four at a time with a single branch. Each
        // quad contributes exactly what four scalar iterations would:
        // four scan slots, four waiting observations, and its minimum
        // memo bound into the wakeup.
        while (rd + 4 <= len && scanned + 4 <= scan_cap) {
            std::uint64_t n0 = iqNrbA[rd], n1 = iqNrbA[rd + 1];
            std::uint64_t n2 = iqNrbA[rd + 2], n3 = iqNrbA[rd + 3];
            if (!((n0 > cycle) & (n1 > cycle) & (n2 > cycle) &
                  (n3 > cycle)))
                break;
            scanned += 4;
            waiting_seen += 4;
            std::uint64_t m01 = n0 < n1 ? n0 : n1;
            std::uint64_t m23 = n2 < n3 ? n2 : n3;
            std::uint64_t m = m01 < m23 ? m01 : m23;
            if (m < wake)
                wake = m;
            if (wr != rd)
                for (int i = 0; i < 4; ++i) {
                    iqSeqA[wr + i] = iqSeqA[rd + i];
                    iqNrbA[wr + i] = iqNrbA[rd + i];
                }
            wr += 4;
            rd += 4;
        }
        if (rd >= len)
            break;

        std::uint64_t cur = iqSeqA[rd];
        if (++scanned > scan_cap)
            break;

        // The memo short-circuits everything for entries known to
        // still be waiting, touching only the scan lanes — never the
        // window entry.
        std::uint64_t nrb = iqNrbA[rd];
        if (nrb > cycle) {
            ++waiting_seen;
            if (nrb < wake)
                wake = nrb;
            iqSeqA[wr] = cur;
            iqNrbA[wr] = nrb;
            ++wr;
            continue;
        }
        InFlight &e = liveEntry(cur);
        if (!depsReady(e, nrb)) {
            ++waiting_seen;
            if (nrb < wake) // depsReady refreshed the memo
                wake = nrb;
            iqSeqA[wr] = cur;
            iqNrbA[wr] = nrb;
            ++wr;
            continue;
        }
        ++ready_seen;

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
        if (!fu_ok) {
            iqSeqA[wr] = cur;
            iqNrbA[wr] = nrb; // expired memo: re-check next cycle
            ++wr;
            continue;
        }

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

        // Free the IQ slot (not writing `cur` back removes it).
        e.inIq = false;
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
        ++issued;
    }

    // Reattach the unvisited tail behind the survivors.
    if (wr != rd) {
        if (wr == iqStart)
            iqStart = rd; // every visited entry issued: just advance
        else {
            // data() + rd, not &v[rd]: rd may equal len (an empty
            // tail), and operator[] at size() is out of range.
            std::memmove(iqSeqA.data() + wr, iqSeqA.data() + rd,
                         (len - rd) * sizeof(iqSeqA[0]));
            std::memmove(iqNrbA.data() + wr, iqNrbA.data() + rd,
                         (len - rd) * sizeof(iqNrbA[0]));
            iqSeqA.resize(len - (rd - wr));
            iqNrbA.resize(len - (rd - wr));
        }
    }

    lastReadyCount = ready_seen;
    // Entries beyond the scan cap are assumed waiting.
    std::uint64_t in_iq = iqOcc + issued; // occupancy at scan start
    lastWaitingCount =
        waiting_seen + (in_iq > scanned ? in_iq - scanned : 0);

    // Nothing ready anywhere in the scan: sleep until the earliest
    // bound (entries past the scan cap cannot issue or change the
    // observations while the population is frozen).
    if (issued == 0 && ready_seen == 0 && wake != ~0ull)
        issueSleepUntil = wake;
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
    while (done < cfg.fetchWidth && !fetchQueue.empty()) {
        InFlight &e = fetchQueue.front();
        if (window.size() >= cfg.robSize)
            break;
        if (iqOcc >= cfg.iqSize)
            break;
        bool mem = isMem(e.op.cls);
        if (mem && lsqOcc >= cfg.lsqSize)
            break;

        e.seq = frontSeq + window.size();
        e.inIq = true;
        ++iqOcc;
        iqAvfAcc.occupy(ace.iqWaiting(e.op.cls));
        robAvfAcc.occupy(ace.robInFlight(e.op.cls));
        if (mem) {
            e.inLsq = true;
            ++lsqOcc;
            lsqAvfAcc.occupy(ace.lsq(e.op.cls));
        }
        ++activity.dispatched;
        window.push_back(e);
        iqListAppend(window.back());
        fetchQueue.pop_front();
        ++done;
    }
    // New residents have unknown readiness: wake the issue scan.
    if (done > 0)
        issueSleepUntil = 0;
}

void
Pipeline::doFetch()
{
    if (fetchWaitingResolve || cycle < fetchBlockedUntil)
        return;

    const std::size_t fq_cap = 2 * cfg.fetchWidth;
    unsigned fetched = 0;
    while (fetched < cfg.fetchWidth && fetchQueue.size() < fq_cap) {
        InFlight e;
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

        fetchQueue.push_back(e);
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
    activity.robOccupancySum += window.size();
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
    // state the checks read is frozen across inert cycles: commit,
    // issue, dispatch and fetch are the only mutators, and each is
    // blocked below. The DVM controller is disabled whenever this
    // runs (setIdleSkip), so dispatch gating never observes a cycle.

    // Commit: the head must be absent, unissued, or incomplete.
    if (!window.empty()) {
        const InFlight &h = window.front();
        if (h.issued && h.completeCycle <= cycle)
            return 0;
    }

    // Issue: the scan only provably does nothing while asleep (or
    // with an empty IQ); its wakeup is an explicit bound below.
    if (iqOcc > 0 && cycle >= issueSleepUntil)
        return 0;

    // Dispatch: the in-order front must be blocked by a full
    // downstream structure (the loop stops at the first such entry).
    if (!fetchQueue.empty()) {
        const InFlight &f = fetchQueue.front();
        if (window.size() < cfg.robSize && iqOcc < cfg.iqSize &&
            !(isMem(f.op.cls) && lsqOcc >= cfg.lsqSize))
            return 0;
    }

    // Fetch: blocked on a mispredict resolution (cleared only by
    // issue, asleep above), a full fetch queue (drained only by
    // dispatch, blocked above), or a time bound.
    bool fetch_time_blocked = false;
    if (!fetchWaitingResolve &&
        fetchQueue.size() < 2 * cfg.fetchWidth) {
        if (cycle >= fetchBlockedUntil)
            return 0;
        fetch_time_blocked = true;
    }

    // Everything is inert. The machine state cannot change before the
    // earliest of: the next completion event, the issue-sleep wakeup,
    // the fetch unblock. (Completions at the current cycle have not
    // drained yet — cycleOnce does that — so the event scan starts at
    // `cycle` itself and a due event forces a normal cycle.)
    std::uint64_t target = ~0ull;
    if (iqOcc > 0 && issueSleepUntil < target)
        target = issueSleepUntil;
    if (fetch_time_blocked && fetchBlockedUntil < target)
        target = fetchBlockedUntil;
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
        static_cast<std::uint64_t>(window.size()) * k;
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
    if (idleSkip) {
        while (totalCommitted < committedTarget) {
            // Cheap pre-filter: unless the issue stage is provably
            // inert (idleCycles' own second test), the cycle is
            // active and the full check would just re-derive that.
            // Skipping the check never changes results — a normal
            // cycle is always the ground truth.
            if (iqOcc == 0 || cycle < issueSleepUntil) {
                std::uint64_t k = idleCycles();
                if (k > 0) {
                    skipCycles(k);
                    continue;
                }
            }
            cycleOnce();
        }
        return;
    }
    while (totalCommitted < committedTarget)
        cycleOnce();
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
