#include "sim/cache.hh"

#include <algorithm>
#include <cassert>

namespace wavedyn
{

namespace
{

unsigned
log2u(unsigned v)
{
    unsigned l = 0;
    while ((1u << l) < v)
        ++l;
    return l;
}

} // anonymous namespace

Cache::Cache(unsigned size_kb, unsigned assoc, unsigned line_bytes,
             std::string name)
    : assoc(assoc), lineSize(line_bytes), label(std::move(name))
{
    assert(size_kb > 0 && assoc > 0 && line_bytes > 0);
    std::uint64_t bytes = static_cast<std::uint64_t>(size_kb) * 1024;
    std::uint64_t lines_total = bytes / line_bytes;
    if (lines_total < assoc)
        lines_total = assoc;
    numSets = static_cast<unsigned>(lines_total / assoc);
    if (numSets == 0)
        numSets = 1;
    indexShift = log2u(lineSize);
    if ((numSets & (numSets - 1)) == 0) {
        setMask = numSets - 1;
        setShift = log2u(numSets);
    }
    std::size_t n = static_cast<std::size_t>(numSets) * assoc;
    tagA.assign(n, 0);     // 0 = never filled
    lastUseA.assign(n, 0);
}

bool
Cache::access(std::uint64_t addr)
{
    ++stat.accesses;
    ++useClock;
    std::uint64_t block = addr >> indexShift;
    std::uint64_t set, tag;
    splitBlock(block, set, tag);
    std::size_t base = static_cast<std::size_t>(set) * assoc;
    std::uint64_t *tags = &tagA[base];
    std::uint64_t *uses = &lastUseA[base];

    // Hit path: scan only the tag lane.
    const std::uint64_t stored = tag + 1;
    for (unsigned w = 0; w < assoc; ++w) {
        if (tags[w] == stored) {
            uses[w] = useClock;
            return true;
        }
    }

    // Miss: fill into invalid or LRU way.
    ++stat.misses;
    unsigned victim = 0;
    std::uint64_t oldest = ~0ull;
    for (unsigned w = 0; w < assoc; ++w) {
        if (uses[w] == 0) {
            victim = w;
            break;
        }
        if (uses[w] < oldest) {
            oldest = uses[w];
            victim = w;
        }
    }
    tags[victim] = stored;
    uses[victim] = useClock;
    return false;
}

bool
Cache::probe(std::uint64_t addr) const
{
    std::uint64_t block = addr >> indexShift;
    std::uint64_t set, tag;
    splitBlock(block, set, tag);
    std::size_t base = static_cast<std::size_t>(set) * assoc;
    for (unsigned w = 0; w < assoc; ++w)
        if (tagA[base + w] == tag + 1)
            return true;
    return false;
}

void
Cache::reset()
{
    std::fill(tagA.begin(), tagA.end(), 0);
    std::fill(lastUseA.begin(), lastUseA.end(), 0);
    useClock = 0;
    stat.reset();
}

namespace
{

/**
 * Geometry helper: an entries-deep, assoc-way cache whose "line" is one
 * page models a TLB exactly.
 */
Cache
makeTlbBacking(unsigned entries, unsigned assoc, unsigned page_bytes,
               std::string name)
{
    unsigned sets = entries / assoc;
    if (sets == 0)
        sets = 1;
    std::uint64_t bytes =
        static_cast<std::uint64_t>(sets) * assoc * page_bytes;
    return Cache(static_cast<unsigned>(bytes / 1024), assoc, page_bytes,
                 std::move(name));
}

} // anonymous namespace

Tlb::Tlb(unsigned entries, unsigned assoc, unsigned page_bytes,
         std::string name)
    : backing(makeTlbBacking(entries, assoc, page_bytes, std::move(name)))
{
}

bool
Tlb::access(std::uint64_t addr)
{
    return backing.access(addr);
}

} // namespace wavedyn
