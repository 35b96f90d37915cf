/**
 * @file
 * Fixed-capacity power-of-two ring buffer.
 *
 * The pipeline's in-flight window (the ROB with the fetch queue behind
 * it) is a FIFO queue with random access by logical index and a hard
 * capacity known at construction (SimConfig sizes). A ring over one
 * flat allocation gives it contiguous storage, O(1) masked indexing,
 * and zero allocations after construction — the properties the
 * per-cycle commit and issue walks are hot on. Slots never move while
 * an element is alive, so pointers into the buffer stay valid until
 * that element's pop_front().
 *
 * Storage comes from an owned vector by default, or — for batched
 * runs constructing N pipelines at once (sim/batch.hh) — from a
 * BatchArena slab, so all lanes' rings share one allocation. An
 * arena-backed ring must not outlive its arena and must not be
 * copied (the copy would alias the same slots); the owned mode keeps
 * the original value semantics.
 */

#ifndef WAVEDYN_SIM_RING_BUFFER_HH
#define WAVEDYN_SIM_RING_BUFFER_HH

#include <cassert>
#include <cstddef>
#include <utility>
#include <vector>

#include "sim/batch_arena.hh"
#include "util/bits.hh"

namespace wavedyn
{

/** FIFO ring over one flat allocation; capacity rounds up to 2^k. */
template <typename T>
class RingBuffer
{
  public:
    /** @param capacity minimum element capacity (>= 1 enforced). */
    explicit RingBuffer(std::size_t capacity)
    {
        std::size_t cap = static_cast<std::size_t>(ceilPow2(capacity));
        own.resize(cap);
        mask = cap - 1;
    }

    /** Slots carved from @p arena instead of the heap. */
    RingBuffer(std::size_t capacity, BatchArena &arena)
    {
        std::size_t cap = static_cast<std::size_t>(ceilPow2(capacity));
        ext = arena.allocate<T>(cap);
        mask = cap - 1;
    }

    bool empty() const { return count == 0; }
    bool full() const { return count == mask + 1; }
    std::size_t size() const { return count; }
    std::size_t capacity() const { return mask + 1; }

    /** Element @p i positions behind the front. @pre i < size(). */
    T &
    operator[](std::size_t i)
    {
        assert(i < count);
        return slots()[(head + i) & mask];
    }

    const T &
    operator[](std::size_t i) const
    {
        assert(i < count);
        return slots()[(head + i) & mask];
    }

    T &front() { return (*this)[0]; }
    const T &front() const { return (*this)[0]; }
    T &back() { return (*this)[count - 1]; }
    const T &back() const { return (*this)[count - 1]; }

    /** Append at the back; returns the new element. @pre !full(). */
    T &
    push_back(T v)
    {
        assert(!full());
        T &slot = slots()[(head + count) & mask];
        slot = std::move(v);
        ++count;
        return slot;
    }

    /** Drop the front element. @pre !empty(). */
    void
    pop_front()
    {
        assert(!empty());
        head = (head + 1) & mask;
        --count;
    }

    void
    clear()
    {
        head = 0;
        count = 0;
    }

  private:
    T *slots() { return ext ? ext : own.data(); }
    const T *slots() const { return ext ? ext : own.data(); }

    std::vector<T> own;
    T *ext = nullptr; //!< arena-carved slots, when set
    std::size_t mask = 0;
    std::size_t head = 0;
    std::size_t count = 0;
};

} // namespace wavedyn

#endif // WAVEDYN_SIM_RING_BUFFER_HH
