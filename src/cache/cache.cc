#include "cache/cache.hh"

#include <algorithm>
#include <bit>

#include "common/log.hh"

namespace morph
{

Cache::Cache(std::size_t size_bytes, unsigned ways) : ways_(ways)
{
    if (ways == 0 || size_bytes == 0 ||
        size_bytes % (std::size_t(ways) * lineBytes) != 0) {
        fatal("cache: size %zu not divisible into %u-way sets of 64B "
              "lines", size_bytes, ways);
    }
    numSets_ = size_bytes / (std::size_t(ways) * lineBytes);
    setMask_ = std::has_single_bit(numSets_) ? numSets_ - 1 : npos;
    tags_.assign(numSets_ * ways_, 0);
    lastUse_.assign(numSets_ * ways_, 0);
    dirty_.assign(numSets_ * ways_, 0);
}

std::optional<Eviction>
Cache::insert(LineAddr line, bool dirty, InsertPosition position)
{
    MORPH_CHECK(line != ~LineAddr(0));
    const Lookup slot = peek(line);
    if (slot.hit) {
        lastUse_[slot.way] = ++useClock_;
        dirty_[slot.way] |= std::uint8_t(dirty);
        return std::nullopt;
    }

    return fill(line, dirty, position, slot.way).evicted;
}

void
Cache::demote(std::size_t base, Way victim)
{
    std::uint64_t lowest = ~std::uint64_t(0);
    for (Way w = base; w < base + ways_; ++w) {
        if (tags_[w] != 0 && w != victim)
            lowest = std::min(lowest, lastUse_[w]);
    }
    lastUse_[victim] =
        lowest == ~std::uint64_t(0) || lowest == 0 ? 0 : lowest - 1;
}

std::optional<Eviction>
Cache::invalidate(LineAddr line)
{
    const Lookup slot = peek(line);
    if (!slot.hit)
        return std::nullopt;
    const Eviction ev{line, dirty_[slot.way] != 0};
    tags_[slot.way] = 0;
    dirty_[slot.way] = 0;
    return ev;
}

void
Cache::flush()
{
    std::fill(tags_.begin(), tags_.end(), 0);
    std::fill(dirty_.begin(), dirty_.end(), 0);
}

} // namespace morph
