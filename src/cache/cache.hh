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
 * dirty flags in parallel arrays, so a lookup touches only the tags.
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
 * secure-memory controller's tree walk: a miss there probes the set
 * once, then fill()s the line without scanning the set again.
 */
class Cache
{
  public:
    /** A way: index into the per-way arrays. */
    using Way = std::size_t;
    /** No way: the line is absent. */
    static constexpr Way npos = ~Way(0);

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
     * Look up @p line; updates LRU and statistics like access().
     *
     * @param write if true and the line hits, mark it dirty
     * @return the way holding the line, or npos on a miss
     */
    Way
    probe(LineAddr line, bool write = false)
    {
        const Way way = find(line);
        if (way != npos) {
            lastUse_[way] = ++useClock_;
            dirty_[way] |= std::uint8_t(write);
            ++stats_.hits;
            return way;
        }
        ++stats_.misses;
        return npos;
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
        return probe(line, write) != npos;
    }

    /** Probe without updating replacement state or statistics. */
    bool contains(LineAddr line) const { return find(line) != npos; }

    /**
     * Insert @p line, which must be absent (checked in debug builds):
     * the victim is picked without a lookup.
     *
     * @param position stack position for the new line; Lru implements
     *        type-aware demotion (metadata classes with little reuse
     *        can be inserted as the next victim)
     * @return the line's way, and the victim line if a valid line had
     *         to be evicted
     */
    Fill
    fill(LineAddr line, bool dirty,
         InsertPosition position = InsertPosition::Mru)
    {
        MORPH_CHECK(line != ~LineAddr(0));
        MORPH_DCHECK(find(line) == npos);

        // Victim: the first invalid way, else the first least-recently
        // used one. The minimum is tracked branch-free, as the stamp
        // comparison is data-dependent and would mispredict.
        const std::size_t base = setBase(line);
        Way victim = base;
        std::uint64_t oldest = lastUse_[base];
        for (Way w = base; w < base + ways_; ++w) {
            if (tags_[w] == 0) {
                victim = w;
                break;
            }
            const bool older = lastUse_[w] < oldest;
            victim = older ? w : victim;
            oldest = older ? lastUse_[w] : oldest;
        }

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
            demote(base, victim);
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
     * the way a probe() or fill() returned for @p line: it is used when
     * it still holds the line, else the set is searched.
     */
    bool
    markDirty(LineAddr line, Way hint = npos)
    {
        const Way way = hint != npos && tags_[hint] == line + 1
                            ? hint
                            : find(line);
        if (way == npos)
            return false;
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

    /** Way holding @p line, or npos. */
    Way
    find(LineAddr line) const
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
