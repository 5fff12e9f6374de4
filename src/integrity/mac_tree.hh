/**
 * @file
 * Bonsai-style Merkle MAC-tree (paper §VIII-B1 related work).
 *
 * The alternative integrity structure the paper compares against
 * conceptually: a tree of MACs rather than a tree of counters. Each
 * 64-byte node holds 8 x 64-bit child MACs, so the arity is fixed at
 * 8 regardless of the counter organization below — the structural
 * limitation that motivates counter trees: only 8 x 64-bit MACs fit
 * a cacheline, and 32-bit MACs (16-ary) are not secure enough.
 *
 * The tree is built over the encryption-counter entries (Bonsai
 * optimization: data freshness follows from counter freshness + data
 * MACs). Leaf MACs authenticate counter entries; interior MACs
 * authenticate child nodes; the root MAC lives on-chip.
 *
 * This class is functional (real hashes, real detection). For timing
 * experiments, a MAC-tree is traffic-equivalent to an 8-ary counter
 * tree with no overflows — use TreeConfig::bonsaiMacTree() with the
 * cycle model.
 */

#ifndef MORPH_INTEGRITY_MAC_TREE_HH
#define MORPH_INTEGRITY_MAC_TREE_HH

#include <vector>

#include "common/sparse_store.hh"
#include "crypto/mac.hh"

namespace morph
{

/** Shape of a MAC-tree level. */
struct MacTreeLevel
{
    unsigned level;        ///< 1 = directly above the leaves
    std::uint64_t nodes;   ///< 64 B nodes in this level
    std::uint64_t bytes;   ///< nodes * 64
};

/** Functional 8-ary Merkle MAC-tree over leaf cachelines. */
class MacTree
{
  public:
    static constexpr unsigned arity = 8; ///< 8 x 64-bit MACs per node

    /**
     * @param leaves  number of protected leaf cachelines (e.g. the
     *                encryption-counter entries of a secure memory)
     * @param mac_key PRF key for every node level
     */
    MacTree(std::uint64_t leaves, const SipKey &mac_key);

    /**
     * Publish a new version of leaf @p index with contents @p image:
     * recomputes the leaf MAC and every ancestor hash up to the
     * on-chip root.
     */
    void updateLeaf(std::uint64_t index, const CachelineData &image);

    /**
     * Verify that @p image is the current version of leaf @p index
     * against the MAC path to the root.
     *
     * @retval true if every hash on the path matches
     */
    bool verifyLeaf(std::uint64_t index,
                    const CachelineData &image) const;

    /** Verify the internal consistency of every materialized node. */
    bool verifyAll() const;

    // ---- Adversary interface ----

    /** Raw image of an interior node (materializing if absent). */
    CachelineData nodeImage(unsigned level, std::uint64_t index) const;

    /** Overwrite a stored interior node, bypassing protection. */
    void injectNode(unsigned level, std::uint64_t index,
                    const CachelineData &image);

    /** Tree shape (levels above the leaves, including the root). */
    const std::vector<MacTreeLevel> &levels() const { return levels_; }

    /** Total tree bytes (root included, though it lives on-chip). */
    std::uint64_t treeBytes() const;

    std::uint64_t leaves() const { return leaves_; }

  private:
    /** Node image at (level, index); zeros if never materialized. */
    const CachelineData &node(unsigned level, std::uint64_t index) const;
    CachelineData &nodeMutable(unsigned level, std::uint64_t index);

    /** MAC of 64 bytes bound to (level, index). */
    std::uint64_t hashOf(unsigned level, std::uint64_t index,
                         const CachelineData &image) const;

    /** Read/write the 64-bit MAC slot @p slot of a node image. */
    static std::uint64_t slotOf(const CachelineData &image,
                                unsigned slot);
    static void setSlot(CachelineData &image, unsigned slot,
                        std::uint64_t value);

    std::uint64_t leaves_;
    MacEngine macEngine_;
    std::vector<MacTreeLevel> levels_;
    /** Interior node storage, per level (level - 1 indexes this). */
    std::vector<SparseStore<CachelineData>> store_;
    /** The on-chip root MAC (hash of the single top node). */
    std::uint64_t rootMac_ = 0;
};

} // namespace morph

#endif // MORPH_INTEGRITY_MAC_TREE_HH
