/**
 * @file
 * The shared on-chip metadata cache (paper Table I: 128 KB, 8-way).
 *
 * Holds encryption-counter entries, integrity-tree entries and (in
 * separate-MAC mode) MAC lines. A thin wrapper over the generic Cache
 * that adds per-tree-level occupancy accounting — the mechanism behind
 * the paper's central observation that compact trees keep their upper
 * levels fully resident, terminating traversals early.
 */

#ifndef MORPH_SECMEM_METADATA_CACHE_HH
#define MORPH_SECMEM_METADATA_CACHE_HH

#include <vector>

#include "cache/cache.hh"
#include "integrity/tree_geometry.hh"

namespace morph
{

class StatRegistry;

/** Metadata cache with per-level occupancy introspection. */
class MetadataCache
{
  public:
    /**
     * @param size_bytes capacity (64 KB / 128 KB / 256 KB in Fig 19)
     * @param ways       associativity
     * @param geom       geometry used to attribute lines to levels
     */
    MetadataCache(std::size_t size_bytes, unsigned ways,
                  const TreeGeometry &geom)
        : cache_(size_bytes, ways), geom_(&geom)
    {}

    using Way = Cache::Way;
    static constexpr Way npos = Cache::npos;

    /** @copydoc Cache::lookup */
    Cache::Lookup
    lookup(LineAddr line, bool write = false)
    {
        return cache_.lookup(line, write);
    }

    /** @copydoc Cache::peek */
    Cache::Lookup peek(LineAddr line) const { return cache_.peek(line); }

    /** @copydoc Cache::fill */
    Cache::Fill
    fill(LineAddr line, bool dirty,
         InsertPosition position = InsertPosition::Mru, Way victim = npos)
    {
        return cache_.fill(line, dirty, position, victim);
    }

    /** @copydoc Cache::markDirty */
    bool
    markDirty(LineAddr line, Way hint = npos)
    {
        return cache_.markDirty(line, hint);
    }

    /** @copydoc Cache::flush */
    void flush() { cache_.flush(); }

    const CacheStats &stats() const { return cache_.stats(); }
    void resetStats() { cache_.resetStats(); }
    std::size_t sizeBytes() const { return cache_.sizeBytes(); }

    /**
     * Register hit/miss/eviction counters and the hit-rate gauge into
     * @p registry under @p prefix; with @p occupancy, per-tree-level
     * residency gauges ("<prefix>.occupancy.levelN" plus ".other" for
     * MAC lines) are included. Occupancy gauges walk the whole cache
     * at sample time — reporting only, never the simulation fast path.
     */
    void registerStats(StatRegistry &registry,
                       const std::string &prefix,
                       bool occupancy = false) const;

    /**
     * Number of resident lines per tree level (index = level; one
     * extra trailing slot counts non-metadata lines such as MAC
     * lines). Linear in cache size — intended for reporting, not the
     * simulation fast path.
     */
    std::vector<std::uint64_t> levelOccupancy() const;

    /**
     * Resident lines currently dirty — mutations that never left the
     * chip. Reported as the end-of-run "<prefix>.dirty_lines" gauge so
     * dirty_evictions plus this accounts for every dirty line; the
     * persist domain's final barrier drains the same set into the
     * durable image. Linear in cache size — reporting only.
     */
    std::uint64_t dirtyLineCount() const;

  private:
    Cache cache_;
    const TreeGeometry *geom_;
};

} // namespace morph

#endif // MORPH_SECMEM_METADATA_CACHE_HH
