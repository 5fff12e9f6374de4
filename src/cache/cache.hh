/**
 * @file
 * Generic set-associative write-back cache model.
 *
 * Models presence and dirtiness only — payloads live in the backing
 * stores of the components that use the cache. Used for the shared
 * metadata cache that holds encryption-counter and integrity-tree
 * lines (128 KB, 8-way in the paper's baseline).
 *
 * Replacement is true LRU. Dirty evictions are reported to the caller
 * through the return value of insert()/fill() so that the secure
 * memory controller can propagate counter write-back traffic up the
 * integrity tree.
 *
 * Storage is set-major structure-of-arrays: a set's tags sit in one
 * contiguous run (8 ways = one host cacheline), with the LRU stamps and
 * dirty flags in parallel arrays. A lookup reads the set's tags and,
 * to pick a victim as it goes, its stamps.
 * A tag is line + 1; 0 marks an invalid way. With a power-of-two set
 * count the set index is a mask, otherwise a modulo.
 */

#ifndef MORPH_CACHE_CACHE_HH
#define MORPH_CACHE_CACHE_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "common/check.hh"
#include "common/types.hh"

namespace morph
{

/** A line evicted from the cache. */
struct Eviction
{
    LineAddr line;
    bool dirty;
};

/** Replacement-stack position for newly inserted lines. */
enum class InsertPosition : std::uint8_t
{
    Mru, ///< normal insertion (most recently used)
    Lru, ///< demoted insertion: first victim unless re-referenced
};

/** Aggregate cache statistics. */
struct CacheStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t dirtyEvictions = 0;

    double
    hitRate() const
    {
        const std::uint64_t total = hits + misses;
        return total ? double(hits) / double(total) : 0.0;
    }
};

/**
 * Set-associative LRU cache over 64-byte lines. The victim is the
 * set's first invalid way, else its first way with the oldest use.
 * Line ~0 is not cacheable: its tag would be the invalid marker.
 *
 * The lookup and fill paths are defined here so they inline into the
 * secure-memory controller's tree walk: a miss there scans the set
 * once, in lookup(), which also picks the victim, and fill() writes
 * the line straight into that way.
 */
class Cache
{
  public:
    /** A way: index into the per-way arrays. */
    using Way = std::size_t;
    /** No way: the line is absent. */
    static constexpr Way npos = ~Way(0);

    /** Outcome of a lookup: the way holding the line on a hit, else
     *  the victim a fill of the line would take. */
    struct Lookup
    {
        Way way;
        bool hit;
    };

    /** Outcome of fill(): where the line went, what it displaced. */
    struct Fill
    {
        Way way;
        std::optional<Eviction> evicted;
    };

    /**
     * @param size_bytes total capacity; must be a multiple of
     *                   ways * lineBytes
     * @param ways       associativity
     */
    Cache(std::size_t size_bytes, unsigned ways);

    /**
     * Look up @p line in one scan of its set. A hit updates LRU and
     * statistics; a miss counts one and returns the victim for
     * fill().
     *
     * @param write if true and the line hits, mark it dirty
     */
    Lookup
    lookup(LineAddr line, bool write = false)
    {
        const Lookup slot = peek(line);
        if (slot.hit) {
            lastUse_[slot.way] = ++useClock_;
            dirty_[slot.way] |= std::uint8_t(write);
            ++stats_.hits;
        } else {
            ++stats_.misses;
        }
        return slot;
    }

    /**
     * Look up @p line; updates LRU on hit.
     *
     * @param line  line to access
     * @param write if true and the line hits, mark it dirty
     * @retval true on hit
     */
    bool access(LineAddr line, bool write = false)
    {
        return lookup(line, write).hit;
    }

    /** lookup() without updating replacement state or statistics. */
    Lookup
    peek(LineAddr line) const
    {
        // Line ~0 would map to tag 0, the invalid marker.
        MORPH_DCHECK(line != ~LineAddr(0));
        const std::size_t base = setBase(line);
        const std::uint64_t tag = line + 1;
        // Victim key: 0 for an invalid way, else its last use + 1; the
        // first way with the lowest key wins. The minimum is tracked
        // branch-free, as the comparison is data-dependent and would
        // mispredict.
        Way victim = base;
        std::uint64_t lowest = ~std::uint64_t(0);
        for (Way w = base; w < base + ways_; ++w) {
            if (tags_[w] == tag)
                return {w, true};
            const std::uint64_t key = tags_[w] != 0 ? lastUse_[w] + 1 : 0;
            const bool lower = key < lowest;
            victim = lower ? w : victim;
            lowest = lower ? key : lowest;
        }
        return {victim, false};
    }

    /** Probe without updating replacement state or statistics. */
    bool contains(LineAddr line) const { return peek(line).hit; }

    /**
     * Insert @p line, which must be absent (checked in debug builds).
     *
     * @param position stack position for the new line; Lru implements
     *        type-aware demotion (metadata classes with little reuse
     *        can be inserted as the next victim)
     * @param victim the way a missed lookup() or peek() of @p line
     *        returned, with the set unchanged since; npos scans the
     *        set for it
     * @return the line's way, and the victim line if a valid line had
     *         to be evicted
     */
    Fill
    fill(LineAddr line, bool dirty,
         InsertPosition position = InsertPosition::Mru, Way victim = npos)
    {
        MORPH_CHECK(line != ~LineAddr(0));
        if (victim == npos)
            victim = peek(line).way;
        MORPH_DCHECK(!peek(line).hit && peek(line).way == victim);

        Fill result{victim, std::nullopt};
        if (tags_[victim] != 0) {
            result.evicted = Eviction{LineAddr(tags_[victim] - 1),
                                      dirty_[victim] != 0};
            ++stats_.evictions;
            if (dirty_[victim])
                ++stats_.dirtyEvictions;
        }

        tags_[victim] = line + 1;
        dirty_[victim] = std::uint8_t(dirty);
        if (position == InsertPosition::Mru)
            lastUse_[victim] = ++useClock_;
        else
            demote(setBase(line), victim);
        return result;
    }

    /**
     * Insert @p line (assumed missing; inserting a present line just
     * updates its dirty bit and LRU position).
     *
     * @param position stack position for the new line (see fill())
     * @return the victim line if a valid line had to be evicted
     */
    std::optional<Eviction> insert(LineAddr line, bool dirty,
                                   InsertPosition position =
                                       InsertPosition::Mru);

    /**
     * Mark a (present) line dirty; returns false if absent. @p hint is
     * the way a lookup() or fill() returned for @p line: it is used
     * when it still holds the line, else the set is searched.
     */
    bool
    markDirty(LineAddr line, Way hint = npos)
    {
        Way way = hint;
        if (hint == npos || tags_[hint] != line + 1) {
            const Lookup slot = peek(line);
            if (!slot.hit)
                return false;
            way = slot.way;
        }
        dirty_[way] = 1;
        return true;
    }

    /** Remove a line if present; returns its eviction record. */
    std::optional<Eviction> invalidate(LineAddr line);

    /** Drop all contents (statistics are preserved). */
    void flush();

    /** Walk all valid lines, invoking @p fn(line, dirty). */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (std::size_t i = 0; i < tags_.size(); ++i)
            if (tags_[i] != 0)
                fn(LineAddr(tags_[i] - 1), dirty_[i] != 0);
    }

    const CacheStats &stats() const { return stats_; }
    void resetStats() { stats_ = CacheStats{}; }

    std::size_t sizeBytes() const { return numSets_ * ways_ * lineBytes; }
    unsigned ways() const { return ways_; }
    std::size_t numSets() const { return numSets_; }

  private:
    /** First way of the set holding @p line. */
    std::size_t
    setBase(LineAddr line) const
    {
        const std::size_t set = setMask_ != npos ? line & setMask_
                                                 : line % numSets_;
        return set * ways_;
    }

    /** Place @p victim below every other valid way of its set. */
    void demote(std::size_t base, Way victim);

    std::size_t numSets_;
    unsigned ways_;
    std::size_t setMask_; ///< numSets_ - 1 if a power of two, else npos
    // Parallel per-way arrays, numSets_ * ways_ each, set-major.
    std::vector<std::uint64_t> tags_; ///< line + 1; 0 = invalid
    std::vector<std::uint64_t> lastUse_;
    std::vector<std::uint8_t> dirty_;
    std::uint64_t useClock_ = 0;
    CacheStats stats_;
};

} // namespace morph

#endif // MORPH_CACHE_CACHE_HH
