/**
 * @file
 * Cycle-bucketed calendar queue for completion events.
 *
 * The pipeline schedules every event a bounded number of cycles ahead
 * (execution latencies top out at dl1Lat + tlbMissLat + l2Lat +
 * memLat) and visits every cycle exactly once, so a ring of per-cycle
 * buckets replaces a binary heap: O(1) amortised schedule/drain
 * instead of O(log n), no per-event allocation in steady state.
 *
 * Storage is a bounded node pool with per-bucket intrusive lists: the
 * pipeline has at most one pending event per issued-but-uncommitted
 * ROB entry, so the pool never needs more than robSize nodes, which
 * lets it (and the bucket heads) be carved from the batch arena
 * (sim/batch_arena.hh). Exceeding the carved pool or horizon falls
 * back to owned, growing storage, so a wrong estimate costs an
 * allocation, never an event.
 *
 * Drain order is the exact order the original std::priority_queue
 * popped in — ascending (cycle, seq) — by sorting each (small)
 * bucket's events before firing them. That ordering is
 * bit-significant: completion handlers update floating-point AVF
 * accumulators, and FP addition is not associative, so a different
 * within-cycle order would change simulated results.
 *
 * nextEventCycle() supports the pipeline's idle-cycle fast-forward:
 * every pending event lies within (now, now + mask] (bounded schedule
 * horizon, drained every cycle), so each bucket holds events of at
 * most one pending cycle and scanning bucket heads for non-emptiness
 * finds the next event in O(distance).
 */

#ifndef WAVEDYN_SIM_CALENDAR_QUEUE_HH
#define WAVEDYN_SIM_CALENDAR_QUEUE_HH

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <vector>

#include "sim/batch_arena.hh"
#include "util/bits.hh"

namespace wavedyn
{

/** Calendar of (cycle, payload) events with a power-of-two horizon. */
class CalendarQueue
{
  public:
    /** No next event within the asked range. */
    static constexpr std::uint64_t kNoEvent = ~0ull;

    /**
     * Heads and a @p maxPending node pool are carved from @p arena.
     * The pipeline's bound is robSize (one pending completion per
     * issued, uncommitted entry).
     *
     * @param horizon minimum schedulable distance in cycles; the
     *        bucket ring rounds up to a power of two and grows on
     *        demand if an event ever lands further out.
     */
    CalendarQueue(std::uint64_t horizon, std::size_t maxPending,
                  BatchArena &arena)
    {
        std::uint64_t cap = ceilPow2(horizon + 1);
        heads = arena.allocate<std::uint32_t>(cap);
        for (std::uint64_t b = 0; b < cap; ++b)
            heads[b] = kNil;
        mask = cap - 1;
        nodes = arena.allocate<Node>(maxPending);
        poolCap = maxPending;
    }

    CalendarQueue(const CalendarQueue &) = delete;
    CalendarQueue &operator=(const CalendarQueue &) = delete;

    std::size_t pending() const { return count; }

    /** Arena bytes the constructor will carve (heads + node pool +
     *  alignment slack) — for batch slab sizing. */
    static std::size_t
    arenaBytes(std::uint64_t horizon, std::size_t maxPending)
    {
        std::uint64_t cap = ceilPow2(horizon + 1);
        return static_cast<std::size_t>(cap) * sizeof(std::uint32_t) +
               maxPending * sizeof(Node) + 2 * alignof(std::uint64_t);
    }

    /**
     * Schedule @p seq to fire at @p eventCycle.
     * @pre eventCycle > now (events in the past would never drain).
     */
    void
    schedule(std::uint64_t now, std::uint64_t eventCycle,
             std::uint64_t seq)
    {
        assert(eventCycle > now);
        if (eventCycle - now > mask)
            growHorizon(eventCycle - now);
        std::uint32_t idx = allocNode();
        std::uint64_t b = eventCycle & mask;
        nodes[idx].cycle = eventCycle;
        nodes[idx].seq = seq;
        nodes[idx].next = heads[b];
        heads[b] = idx;
        ++count;
        if (eventCycle < minHint)
            minHint = eventCycle;
    }

    /**
     * Invoke fn(seq) for every event scheduled at @p cycle, in
     * ascending seq order, then recycle the bucket's nodes. The caller
     * must drain every cycle in order; events never fire early or
     * late.
     */
    template <typename Fn>
    void
    drain(std::uint64_t cycle, Fn &&fn)
    {
        if (count == 0)
            return;
        // The caller drains in cycle order, so whatever remains after
        // this call fires strictly later — keep the hint monotone.
        if (minHint <= cycle)
            minHint = cycle + 1;
        std::uint32_t *hs = heads;
        std::uint64_t b = cycle & mask;
        std::uint32_t idx = hs[b];
        if (idx == kNil)
            return;
        Node *ns = nodes;
        scratch.clear();
        while (idx != kNil) {
            assert(ns[idx].cycle == cycle);
            scratch.push_back(ns[idx].seq);
            std::uint32_t nxt = ns[idx].next;
            ns[idx].next = freeHead;
            freeHead = idx;
            idx = nxt;
        }
        hs[b] = kNil;
        count -= scratch.size();
        if (count == 0)
            minHint = kNoEvent;
        if (scratch.size() > 1)
            std::sort(scratch.begin(), scratch.end());
        for (std::uint64_t seq : scratch)
            fn(seq);
    }

    /**
     * Earliest cycle in [from, stopAt] holding a pending event, or
     * kNoEvent when there is none in range. Events beyond the bucket
     * horizon cannot be pending (see file comment), so the scan is
     * additionally capped at from + mask.
     *
     * A monotone lower bound on the earliest pending event
     * (maintained by schedule/drain, tightened here) lets repeated
     * queries skip re-scanning buckets already known empty, so the
     * idle fast-forward's scans amortise to O(1) per query instead of
     * O(skip distance).
     */
    std::uint64_t
    nextEventCycle(std::uint64_t from, std::uint64_t stopAt)
    {
        if (count == 0)
            return kNoEvent;
        std::uint64_t last = from + mask;
        if (stopAt < last)
            last = stopAt;
        std::uint64_t c = from;
        if (minHint > c)
            c = minHint; // nothing pending below the lower bound
        const std::uint32_t *hs = heads;
        for (; c <= last; ++c)
            if (hs[c & mask] != kNil) {
                minHint = c;
                return c;
            }
        // No events at or below `last`; remember that.
        minHint = last + 1;
        return kNoEvent;
    }

  private:
    static constexpr std::uint32_t kNil = ~0u;

    struct Node
    {
        std::uint64_t cycle = 0;
        std::uint64_t seq = 0;
        std::uint32_t next = kNil;
    };

    std::uint32_t
    allocNode()
    {
        if (freeHead != kNil) {
            std::uint32_t idx = freeHead;
            freeHead = nodes[idx].next;
            return idx;
        }
        if (fresh == poolCap)
            growPool();
        return static_cast<std::uint32_t>(fresh++);
    }

    /** Double the pool into owned storage (indices stay valid). */
    void
    growPool()
    {
        std::size_t bigger = std::max<std::size_t>(64, poolCap * 2);
        std::vector<Node> next(bigger);
        std::copy(nodes, nodes + poolCap, next.begin());
        ownNodes = std::move(next);
        nodes = ownNodes.data();
        poolCap = bigger;
    }

    /** Re-bucket every pending event into a ring spanning @p dist. */
    void
    growHorizon(std::uint64_t dist)
    {
        std::uint64_t cap = std::max((mask + 1) * 2, ceilPow2(dist + 1));
        std::vector<std::uint32_t> bigger(cap, kNil);
        for (std::uint64_t b = 0; b <= mask; ++b) {
            std::uint32_t idx = heads[b];
            while (idx != kNil) {
                std::uint32_t nxt = nodes[idx].next;
                std::uint64_t nb = nodes[idx].cycle & (cap - 1);
                nodes[idx].next = bigger[nb];
                bigger[nb] = idx;
                idx = nxt;
            }
        }
        ownHeads = std::move(bigger);
        heads = ownHeads.data();
        mask = cap - 1;
    }

    std::uint32_t *heads = nullptr; //!< arena-carved, or ownHeads
    Node *nodes = nullptr;          //!< arena-carved, or ownNodes
    std::vector<std::uint32_t> ownHeads; //!< horizon growth fallback
    std::vector<Node> ownNodes;          //!< pool growth fallback
    std::uint64_t mask = 0;
    std::size_t poolCap = 0;
    std::size_t fresh = 0; //!< pool nodes handed out at least once
    std::uint32_t freeHead = kNil;
    std::size_t count = 0;
    /** Lower bound on the earliest pending event cycle (kNoEvent when
     *  empty). Never exceeds the true minimum while count > 0. */
    std::uint64_t minHint = kNoEvent;
    std::vector<std::uint64_t> scratch; //!< drain sort buffer
};

} // namespace wavedyn

#endif // WAVEDYN_SIM_CALENDAR_QUEUE_HH
