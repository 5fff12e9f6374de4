/**
 * @file
 * Counter-tree state: the per-level counter entries of a Bonsai-style
 * tree and the one counter bump (paper §II-A4, §IV), shared by
 * IntegrityTree, SecureMemoryModel and SecureMemory's Merkle scheme.
 * A user with a birth hook (a MAC, a Merkle publish) does "find, else
 * materialize, then finish" itself before bumping, and may hand the
 * location and entry to bump() to skip a second lookup.
 */

#ifndef MORPH_INTEGRITY_COUNTER_TREE_STATE_HH
#define MORPH_INTEGRITY_COUNTER_TREE_STATE_HH

#include <algorithm>
#include <memory>
#include <vector>

#include "common/check.hh"
#include "common/sparse_store.hh"
#include "integrity/tree_geometry.hh"

namespace morph
{

/** Per-level counter images of one counter tree. */
class CounterTreeState
{
  public:
    /** Where a child's counter lives: entry index and slot. */
    struct Location
    {
        std::uint64_t index;
        unsigned slot;
    };

    /** Outcome of one counter bump. [childBegin, childEnd) are the
     *  children of the level below (data lines, for level 0) whose
     *  counter changed, clipped to the children that exist; empty
     *  without an overflow. */
    struct Bump
    {
        std::uint64_t index;  ///< entry holding the bumped counter
        unsigned slot;        ///< its slot within the entry
        CachelineData *image; ///< the entry (stays valid)
        WriteResult result;
        std::uint64_t childBegin = 0;
        std::uint64_t childEnd = 0;
    };

    CounterTreeState(std::uint64_t mem_bytes, const TreeConfig &config);

    const TreeGeometry &geometry() const { return geom_; }
    const CounterFormat &format(unsigned level) const
    {
        return *formats_[level];
    }

    /** Children under @p level: data lines for level 0, else the
     *  entries of the level below. */
    std::uint64_t
    childCount(unsigned level) const
    {
        return level == 0 ? geom_.dataLines()
                          : geom_.levels()[level - 1].entries;
    }

    /** The counter of @p child at @p level; panics if there is no
     *  such child. */
    Location
    locate(unsigned level, std::uint64_t child) const
    {
        MORPH_CHECK_LT(child, childCount(level));
        return {geom_.parentIndex(level, child),
                geom_.childSlot(level, child)};
    }

    /** The stored entry, or nullptr if never touched. Panics on a
     *  level or index out of range. */
    CachelineData *
    find(unsigned level, std::uint64_t index)
    {
        MORPH_CHECK_LT(level, store_.size());
        MORPH_CHECK_LT(index, geom_.levels()[level].entries);
        Memo &memo = memo_[level];
        if (memo.index == index)
            return memo.image;
        CachelineData *image = store_[level].find(index);
        if (image)
            memo = {index, image};
        return image;
    }

    /** Store a format.init() image for an entry find() did not
     *  return. */
    CachelineData &
    materialize(unsigned level, std::uint64_t index)
    {
        CachelineData &image = store_[level][index];
        formats_[level]->init(image);
        memo_[level] = {index, &image};
        return image;
    }

    /** The entry, materialized on first touch. */
    CachelineData &
    entry(unsigned level, std::uint64_t index)
    {
        if (CachelineData *image = find(level, index))
            return *image;
        return materialize(level, index);
    }

    /** Effective encryption counter of @p data_line. */
    std::uint64_t
    counterOf(LineAddr data_line)
    {
        const Location loc = locate(0, data_line);
        return formats_[0]->read(entry(0, loc.index), loc.slot);
    }

    /** Increment the counter of @p child at @p level, materializing
     *  its entry if absent. */
    Bump
    bump(unsigned level, std::uint64_t child)
    {
        const Location loc = locate(level, child);
        return bump(level, loc, entry(level, loc.index));
    }

    /** Increment the counter at @p loc (from locate()) of @p level in
     *  @p image, the entry the caller found or materialized there. */
    Bump
    bump(unsigned level, Location loc, CachelineData &image)
    {
        Bump out{loc.index, loc.slot, &image,
                 formats_[level]->increment(image, loc.slot)};
        if (out.result.overflow) {
            const std::uint64_t base = loc.index
                                       << geom_.levels()[level].arityLog2;
            const std::uint64_t count = childCount(level);
            out.childBegin = std::min(base + out.result.reencBegin, count);
            out.childEnd = std::min(base + out.result.reencEnd, count);
        }
        return out;
    }

    /** The materialized entries of @p level, in materialization
     *  order. */
    const SparseStore<CachelineData> &
    images(unsigned level) const
    {
        MORPH_CHECK_LT(level, store_.size());
        return store_[level];
    }

  private:
    TreeGeometry geom_;
    std::vector<std::unique_ptr<CounterFormat>> formats_;
    std::vector<SparseStore<CachelineData>> store_;

    /**
     * Per level, the last entry find() returned or materialize()
     * stored: a streaming write bumps one entry per level many times
     * in a row. SparseStore values never move and are never erased,
     * so a memo cannot go stale. The index starts past every entry.
     */
    struct Memo
    {
        std::uint64_t index = ~std::uint64_t(0);
        CachelineData *image = nullptr;
    };
    std::vector<Memo> memo_;
};

} // namespace morph

#endif // MORPH_INTEGRITY_COUNTER_TREE_STATE_HH
