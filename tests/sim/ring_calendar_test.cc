/**
 * @file
 * Unit tests for the pipeline's hot-path containers: the fixed-
 * capacity RingBuffer behind the ROB/fetch queue and the CalendarQueue
 * behind completion events, both carved from a BatchArena. The
 * calendar queue's drain order is checked against the
 * std::priority_queue it replaced — within-cycle order is
 * bit-significant for the simulation (FP AVF accumulation).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <queue>
#include <utility>
#include <vector>

#include "sim/batch_arena.hh"
#include "sim/calendar_queue.hh"
#include "sim/ring_buffer.hh"
#include "util/rng.hh"

namespace wavedyn
{
namespace
{

/** Slab for one test's containers; requests beyond it overflow. */
constexpr std::size_t kSlab = 4096;

TEST(RingBuffer, CapacityRoundsUpToPowerOfTwo)
{
    BatchArena arena(kSlab);
    EXPECT_EQ(RingBuffer<int>(1, arena).capacity(), 1u);
    EXPECT_EQ(RingBuffer<int>(2, arena).capacity(), 2u);
    EXPECT_EQ(RingBuffer<int>(3, arena).capacity(), 4u);
    EXPECT_EQ(RingBuffer<int>(96, arena).capacity(), 128u);
    EXPECT_EQ(RingBuffer<int>(128, arena).capacity(), 128u);
    EXPECT_EQ(RingBuffer<int>(160, arena).capacity(), 256u);
    EXPECT_GE(RingBuffer<int>(0, arena).capacity(), 1u);
}

TEST(RingBuffer, FifoOrderAcrossWraps)
{
    BatchArena arena(kSlab);
    RingBuffer<int> rb(4, arena);
    int next_in = 0, next_out = 0;
    // Push/pop in a pattern that wraps the ring many times.
    for (int round = 0; round < 100; ++round) {
        while (!rb.full())
            rb.push_back(next_in++);
        int drops = 1 + round % 3;
        for (int d = 0; d < drops && !rb.empty(); ++d) {
            EXPECT_EQ(rb.front(), next_out++);
            rb.pop_front();
        }
    }
    while (!rb.empty()) {
        EXPECT_EQ(rb.front(), next_out++);
        rb.pop_front();
    }
    EXPECT_EQ(next_in, next_out);
}

TEST(RingBuffer, IndexingIsFrontRelative)
{
    BatchArena arena(kSlab);
    RingBuffer<int> rb(8, arena);
    for (int i = 0; i < 5; ++i)
        rb.push_back(i);
    rb.pop_front();
    rb.pop_front();
    rb.push_back(5);
    rb.push_back(6);
    // Contents now 2,3,4,5,6.
    ASSERT_EQ(rb.size(), 5u);
    for (std::size_t i = 0; i < rb.size(); ++i)
        EXPECT_EQ(rb[i], static_cast<int>(i) + 2);
    EXPECT_EQ(rb.front(), 2);
    EXPECT_EQ(rb.back(), 6);
}

TEST(RingBuffer, SlotsStayPutWhileAlive)
{
    // Pointers into the ring stay valid until that element pops —
    // the pipeline's IQ list holds references across cycles.
    BatchArena arena(kSlab);
    RingBuffer<int> rb(4, arena);
    rb.push_back(10);
    rb.push_back(20);
    int *p = &rb[1];
    rb.push_back(30);
    rb.pop_front();
    EXPECT_EQ(*p, 20);
    EXPECT_EQ(&rb[0], p);
}

TEST(RingBuffer, ClearEmpties)
{
    BatchArena arena(kSlab);
    RingBuffer<int> rb(4, arena);
    rb.push_back(1);
    rb.push_back(2);
    rb.clear();
    EXPECT_TRUE(rb.empty());
    rb.push_back(7);
    EXPECT_EQ(rb.front(), 7);
}

TEST(CalendarQueue, DrainsAtExactCycle)
{
    BatchArena arena(kSlab);
    CalendarQueue cq(16, 64, arena);
    cq.schedule(0, 3, 100);
    cq.schedule(0, 5, 101);
    std::vector<std::uint64_t> seen;
    for (std::uint64_t c = 1; c <= 6; ++c)
        cq.drain(c, [&](std::uint64_t seq) {
            seen.push_back(c * 1000 + seq);
        });
    EXPECT_EQ(seen, (std::vector<std::uint64_t>{3100, 5101}));
    EXPECT_EQ(cq.pending(), 0u);
}

TEST(CalendarQueue, WithinCycleOrderIsAscendingSeq)
{
    // Insertion order deliberately scrambled: out-of-order issue can
    // schedule a younger instruction's completion before an older
    // one's for the same cycle.
    BatchArena arena(kSlab);
    CalendarQueue cq(8, 64, arena);
    cq.schedule(0, 4, 9);
    cq.schedule(1, 4, 2);
    cq.schedule(2, 4, 7);
    cq.schedule(3, 4, 1);
    std::vector<std::uint64_t> seen;
    for (std::uint64_t c = 1; c <= 4; ++c)
        cq.drain(c, [&](std::uint64_t seq) { seen.push_back(seq); });
    EXPECT_EQ(seen, (std::vector<std::uint64_t>{1, 2, 7, 9}));
}

TEST(CalendarQueue, GrowsBeyondInitialHorizon)
{
    BatchArena arena(kSlab);
    CalendarQueue cq(4, 64, arena);
    cq.schedule(0, 2, 1);
    cq.schedule(0, 1000, 2); // far beyond the horizon: forces growth
    cq.schedule(0, 3, 3);
    std::vector<std::pair<std::uint64_t, std::uint64_t>> seen;
    for (std::uint64_t c = 1; c <= 1000; ++c)
        cq.drain(c, [&](std::uint64_t seq) {
            seen.push_back({c, seq});
        });
    using Event = std::pair<std::uint64_t, std::uint64_t>;
    ASSERT_EQ(seen.size(), 3u);
    EXPECT_EQ(seen[0], (Event{2, 1}));
    EXPECT_EQ(seen[1], (Event{3, 3}));
    EXPECT_EQ(seen[2], (Event{1000, 2}));
}

TEST(CalendarQueue, NodePoolOverflowKeepsDrainOrder)
{
    // A carved pool of 2 nodes against 24 pending events: the pool
    // moves to owned storage (twice, while events are pending) and
    // must drain exactly what a heap pops.
    using Event = std::pair<std::uint64_t, std::uint64_t>;
    BatchArena arena(kSlab);
    CalendarQueue cq(16, 2, arena);
    std::priority_queue<Event, std::vector<Event>, std::greater<Event>>
        ref;
    for (std::uint64_t k = 0; k < 24; ++k) {
        std::uint64_t at = 1 + (k * 7) % 12;
        std::uint64_t seq = (k * 11) % 24;
        cq.schedule(0, at, seq);
        ref.push({at, seq});
    }
    EXPECT_EQ(cq.pending(), 24u);
    EXPECT_EQ(arena.overflowAllocations(), 0u); // growth is owned
    std::vector<Event> calendarOut, refOut;
    for (std::uint64_t c = 1; c <= 12; ++c)
        cq.drain(c, [&](std::uint64_t seq) {
            calendarOut.push_back({c, seq});
        });
    while (!ref.empty()) {
        refOut.push_back(ref.top());
        ref.pop();
    }
    EXPECT_EQ(calendarOut, refOut);
    EXPECT_EQ(cq.pending(), 0u);
}

TEST(CalendarQueue, MatchesPriorityQueueReferenceRandomised)
{
    // Randomised equivalence against the heap the calendar replaced:
    // same events in, same (cycle, seq) pop order out.
    using Event = std::pair<std::uint64_t, std::uint64_t>;
    Rng rng(0xca1e);
    for (int round = 0; round < 20; ++round) {
        BatchArena arena(kSlab);
        CalendarQueue cq(32, 64, arena);
        std::priority_queue<Event, std::vector<Event>,
                            std::greater<Event>>
            ref;
        std::vector<Event> calendarOut, refOut;
        std::uint64_t seq = 0;
        const std::uint64_t horizon = 1 + rng.below(300);
        for (std::uint64_t cycle = 0; cycle < 400; ++cycle) {
            // Random bursts of schedules, like an issue stage.
            std::uint64_t n = rng.below(4);
            for (std::uint64_t k = 0; k < n; ++k) {
                std::uint64_t at = cycle + 1 + rng.below(horizon);
                // Scramble seq assignment so within-cycle insertion
                // order differs from seq order.
                std::uint64_t s = seq ^ (rng.below(8) << 2);
                cq.schedule(cycle, at, s);
                ref.push({at, s});
                ++seq;
            }
            cq.drain(cycle + 1, [&](std::uint64_t sq) {
                calendarOut.push_back({cycle + 1, sq});
            });
            while (!ref.empty() && ref.top().first <= cycle + 1) {
                refOut.push_back(ref.top());
                ref.pop();
            }
        }
        EXPECT_EQ(calendarOut, refOut) << "round " << round;
    }
}

} // anonymous namespace
} // namespace wavedyn
