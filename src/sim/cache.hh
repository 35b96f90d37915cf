/**
 * @file
 * Set-associative cache and TLB models with true LRU replacement.
 *
 * Timing is handled by the pipeline; these models answer hit/miss,
 * perform fills, and keep access statistics for the power model.
 */

#ifndef WAVEDYN_SIM_CACHE_HH
#define WAVEDYN_SIM_CACHE_HH

#include <cstdint>
#include <string>
#include <vector>

namespace wavedyn
{

/** Access statistics of one cache-like structure. */
struct CacheStats
{
    std::uint64_t accesses = 0;
    std::uint64_t misses = 0;

    double
    missRate() const
    {
        return accesses ? static_cast<double>(misses) /
                          static_cast<double>(accesses)
                        : 0.0;
    }

    void
    reset()
    {
        accesses = 0;
        misses = 0;
    }
};

/**
 * Set-associative cache with LRU replacement.
 *
 * Tag-only model: no data storage, no dirty bits (write-back traffic is
 * not simulated; see DESIGN.md).
 */
class Cache
{
  public:
    /**
     * @param size_kb capacity in KiB
     * @param assoc number of ways
     * @param line_bytes line size (power of two)
     * @param name for diagnostics
     */
    Cache(unsigned size_kb, unsigned assoc, unsigned line_bytes,
          std::string name);

    /**
     * Look up an address; fills the line on a miss.
     * @return true on hit.
     */
    bool access(std::uint64_t addr);

    /** Look up without fill or statistics (diagnostics only). */
    bool probe(std::uint64_t addr) const;

    /** Invalidate all lines and clear statistics. */
    void reset();

    const CacheStats &stats() const { return stat; }

    /** Clear statistics only (interval boundaries). */
    void resetStats() { stat.reset(); }

    unsigned sets() const { return numSets; }
    unsigned ways() const { return assoc; }
    unsigned lineBytes() const { return lineSize; }
    const std::string &name() const { return label; }

  private:
    /** Split a block number into (set, tag). When numSets is a power
     *  of two — every stock geometry — mask/shift replaces the two
     *  integer divisions on the access fast path; the results are
     *  identical by definition of power-of-two modulus. */
    void
    splitBlock(std::uint64_t block, std::uint64_t &set,
               std::uint64_t &tag) const
    {
        if (setMask != 0 || numSets == 1) {
            set = block & setMask;
            tag = block >> setShift;
        } else {
            set = block % numSets;
            tag = block / numSets;
        }
    }

    unsigned numSets;
    unsigned assoc;
    unsigned lineSize;
    unsigned indexShift;
    unsigned setShift = 0;    //!< log2(numSets) when power of two
    std::uint64_t setMask = 0; //!< numSets - 1 when power of two
    std::string label;
    /**
     * Line state as parallel arrays (numSets x assoc, row major)
     * rather than an array of structs: the hit scan reads only the
     * tag lane — 8 bytes per way, sequential — and touches the LRU
     * lane for a single way, which matters because the modeled L2
     * alone is hundreds of KiB of line state per pipeline and a
     * batch runs many pipelines. tagA holds tag + 1, so 0 means
     * "never filled" and the hit test is one compare per way (a tag
     * is at most addr >> log2(line size), so tag + 1 cannot wrap for
     * lines above one byte). The
     * victim choice reads lastUseA, where useClock is pre-incremented
     * before any use, so a filled line has lastUse >= 1 and 0 again
     * means "never filled".
     */
    std::vector<std::uint64_t> tagA;
    std::vector<std::uint64_t> lastUseA;
    std::uint64_t useClock = 0;
    CacheStats stat;
};

/**
 * TLB: a set-associative cache of page translations.
 */
class Tlb
{
  public:
    Tlb(unsigned entries, unsigned assoc, unsigned page_bytes,
        std::string name);

    /** Translate an address; fills on miss. @return true on hit. */
    bool access(std::uint64_t addr);

    void reset() { backing.reset(); }
    void resetStats() { backing.resetStats(); }
    const CacheStats &stats() const { return backing.stats(); }

  private:
    Cache backing;
};

} // namespace wavedyn

#endif // WAVEDYN_SIM_CACHE_HH
