/**
 * @file
 * Integrity-tree geometry: level sizes, arities, and address mapping.
 *
 * Level 0 holds the encryption counters (one per data cacheline,
 * arity counters per 64 B entry); each level above covers the entries
 * of the level below at that level's arity, until a level fits in a
 * single 64 B line — the root, held on-chip. This computes the tree
 * shapes of paper Fig 1 / Fig 17 / Table III and provides the physical
 * placement of metadata used by the timing model: the metadata region
 * sits directly above the protected data region, one contiguous slab
 * per level.
 */

#ifndef MORPH_INTEGRITY_TREE_GEOMETRY_HH
#define MORPH_INTEGRITY_TREE_GEOMETRY_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "integrity/tree_config.hh"

namespace morph
{

/** Shape of one metadata level. */
struct LevelInfo
{
    unsigned level;       ///< 0 = encryption counters, 1.. = tree
    CounterKind kind;     ///< counter organization of entries here
    unsigned arity;       ///< children covered per 64 B entry
    unsigned arityLog2;   ///< log2(arity); every arity is a power of 2
    std::uint64_t entries; ///< number of 64 B entries in the level
    std::uint64_t bytes;   ///< entries * 64
    LineAddr baseLine;     ///< physical line address of entry 0
};

/** Geometry of a full secure-memory metadata layout. */
class TreeGeometry
{
  public:
    /**
     * @param mem_bytes protected data capacity (e.g. 16 GB)
     * @param config    per-level counter schedule
     */
    TreeGeometry(std::uint64_t mem_bytes, const TreeConfig &config);

    /** Protected data capacity in bytes. */
    std::uint64_t memBytes() const { return memBytes_; }

    /** Number of protected data cachelines. */
    std::uint64_t dataLines() const { return dataLines_; }

    /** All metadata levels, index = level (0 = encryption counters). */
    const std::vector<LevelInfo> &levels() const { return levels_; }

    /** Number of tree levels above the encryption counters,
     *  including the single-line root (paper Fig 17 counts). */
    unsigned treeLevels() const { return unsigned(levels_.size()) - 1; }

    /** Total bytes of encryption counters (level 0). */
    std::uint64_t encryptionBytes() const { return levels_[0].bytes; }

    /** Total bytes of tree levels 1..root (paper's "tree size"). */
    std::uint64_t treeBytes() const;

    /** Index of the level whose single entry is the on-chip root. */
    unsigned rootLevel() const { return unsigned(levels_.size()) - 1; }

    /** Entry index within @p level covering child entry @p child_index
     *  of the level below (or the data line, for level 0). */
    std::uint64_t
    parentIndex(unsigned level, std::uint64_t child_index) const
    {
        return child_index >> levels_[level].arityLog2;
    }

    /** Which counter slot within the parent entry covers the child. */
    unsigned
    childSlot(unsigned level, std::uint64_t child_index) const
    {
        return unsigned(child_index & (levels_[level].arity - 1));
    }

    /** Physical line address of entry @p index at @p level. */
    LineAddr
    lineOfEntry(unsigned level, std::uint64_t index) const
    {
        return levels_[level].baseLine + index;
    }

    /** Level and entry index of a metadata physical line address;
     *  returns false if the line is not metadata. */
    bool entryOfLine(LineAddr line, unsigned &level,
                     std::uint64_t &index) const;

    /** Total physical footprint (data + all metadata) in bytes. */
    std::uint64_t totalBytes() const;

    const TreeConfig &config() const { return config_; }

  private:
    std::uint64_t memBytes_;
    std::uint64_t dataLines_;
    TreeConfig config_;
    std::vector<LevelInfo> levels_;
};

} // namespace morph

#endif // MORPH_INTEGRITY_TREE_GEOMETRY_HH
