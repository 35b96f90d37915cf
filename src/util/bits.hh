/**
 * @file
 * Small bit-manipulation helpers shared by the power-of-two-sized
 * containers (sim/ring_buffer.hh, sim/calendar_queue.hh) and the
 * pipeline's slot bitsets (sim/pipeline.hh). C++17 has no <bit>, so
 * popcount64/ctz64 wrap the GCC/Clang builtins (the build's -Wall
 * -Wextra flags already assume one of those compilers).
 */

#ifndef WAVEDYN_UTIL_BITS_HH
#define WAVEDYN_UTIL_BITS_HH

#include <cstdint>

namespace wavedyn
{

/** Smallest power of two >= n (>= 1; saturates above 2^63). */
constexpr std::uint64_t
ceilPow2(std::uint64_t n)
{
    std::uint64_t p = 1;
    while (p < n && p < (1ull << 63))
        p *= 2;
    return p;
}

/** Number of set bits in @p x. */
inline unsigned
popcount64(std::uint64_t x)
{
    return static_cast<unsigned>(__builtin_popcountll(x));
}

/** Index of the lowest set bit of @p x. @pre x != 0. */
inline unsigned
ctz64(std::uint64_t x)
{
    return static_cast<unsigned>(__builtin_ctzll(x));
}

/** The low @p n bits set (n < 64). */
constexpr std::uint64_t
lowBits(unsigned n)
{
    return (1ull << n) - 1;
}

} // namespace wavedyn

#endif // WAVEDYN_UTIL_BITS_HH
