#include "cache/cache.hh"

#include <algorithm>
#include <bit>

#include "common/check.hh"
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

std::size_t
Cache::find(LineAddr line) const
{
    // Line ~0 would map to tag 0, the invalid marker.
    MORPH_DCHECK(line != ~LineAddr(0));
    const std::size_t base = setBase(line);
    const std::uint64_t tag = line + 1;
    const std::uint64_t *tags = &tags_[base];
    for (unsigned w = 0; w < ways_; ++w)
        if (tags[w] == tag)
            return base + w;
    return npos;
}

bool
Cache::access(LineAddr line, bool write)
{
    const std::size_t way = find(line);
    if (way != npos) {
        lastUse_[way] = ++useClock_;
        dirty_[way] |= std::uint8_t(write);
        ++stats_.hits;
        return true;
    }
    ++stats_.misses;
    return false;
}

bool
Cache::contains(LineAddr line) const
{
    return find(line) != npos;
}

std::optional<Eviction>
Cache::insert(LineAddr line, bool dirty, InsertPosition position)
{
    MORPH_CHECK(line != ~LineAddr(0));
    if (const std::size_t hit = find(line); hit != npos) {
        lastUse_[hit] = ++useClock_;
        dirty_[hit] |= std::uint8_t(dirty);
        return std::nullopt;
    }

    // Victim: the first invalid way, else the first least-recently
    // used one. Kept apart from find(): one merged pass measured no
    // faster. The minimum is tracked branch-free, as the stamp
    // comparison is data-dependent and would mispredict.
    const std::size_t base = setBase(line);
    std::size_t victim = base;
    std::uint64_t oldest = lastUse_[base];
    for (std::size_t w = base; w < base + ways_; ++w) {
        if (tags_[w] == 0) {
            victim = w;
            break;
        }
        const bool older = lastUse_[w] < oldest;
        victim = older ? w : victim;
        oldest = older ? lastUse_[w] : oldest;
    }

    std::optional<Eviction> evicted;
    if (tags_[victim] != 0) {
        evicted = Eviction{LineAddr(tags_[victim] - 1),
                           dirty_[victim] != 0};
        ++stats_.evictions;
        if (dirty_[victim])
            ++stats_.dirtyEvictions;
    }

    tags_[victim] = line + 1;
    dirty_[victim] = std::uint8_t(dirty);
    if (position == InsertPosition::Mru) {
        lastUse_[victim] = ++useClock_;
    } else {
        // Demoted insertion: place below every valid way in the set.
        std::uint64_t lowest = ~std::uint64_t(0);
        for (std::size_t w = base; w < base + ways_; ++w) {
            if (tags_[w] != 0 && w != victim)
                lowest = std::min(lowest, lastUse_[w]);
        }
        lastUse_[victim] = lowest == ~std::uint64_t(0) || lowest == 0
                               ? 0
                               : lowest - 1;
    }
    return evicted;
}

bool
Cache::markDirty(LineAddr line)
{
    const std::size_t way = find(line);
    if (way == npos)
        return false;
    dirty_[way] = 1;
    return true;
}

std::optional<Eviction>
Cache::invalidate(LineAddr line)
{
    const std::size_t way = find(line);
    if (way == npos)
        return std::nullopt;
    const Eviction ev{line, dirty_[way] != 0};
    tags_[way] = 0;
    dirty_[way] = 0;
    return ev;
}

void
Cache::flush()
{
    std::fill(tags_.begin(), tags_.end(), 0);
    std::fill(dirty_.begin(), dirty_.end(), 0);
}

} // namespace morph
