/**
 * @file
 * Functional Bonsai-style counter integrity tree (paper §II-A4).
 *
 * A counter tree protects the encryption counters against replay:
 * every 64 B counter entry carries a MAC computed over its contents
 * and a counter from its *parent* entry; the parent counter increments
 * whenever the child entry changes, so restoring a stale
 * {entry, MAC} pair fails verification against the advanced parent
 * counter. The root entry lives on-chip and is trusted.
 *
 * This class is the *functional* tree: it keeps real counter images
 * in a CounterTreeState, computes real MACs, performs real
 * verification, and supports tamper/replay injection for tests and
 * demos. Write-back caching effects (when increments propagate) are
 * the timing model's concern (src/secmem/secure_memory_model.hh);
 * here every mutation propagates to the root immediately, which is
 * functionally equivalent and maximally conservative.
 *
 * The MACs of one operation are packed four lanes per SipHash pass
 * (MacPacker) as the walk finds each entry, each entry read in place
 * with its MAC field taken as zero: verify() checks every level of the
 * path, and a bump reseals the path and the overflow-reset children it
 * invalidated, each lane packed once its entry and parent counter are
 * final. A caller may add its data-line MAC to either as one more lane
 * (DataLane), in the last pass.
 */

#ifndef MORPH_INTEGRITY_INTEGRITY_TREE_HH
#define MORPH_INTEGRITY_INTEGRITY_TREE_HH

#include <vector>

#include "crypto/mac.hh"
#include "integrity/counter_tree_state.hh"

namespace morph
{

/** Functional counter tree with real MAC chaining. */
class IntegrityTree
{
  public:
    /** Outcome of a counter bump for one data-line write. */
    struct BumpResult
    {
        /** New effective encryption counter for the written line. */
        std::uint64_t newCounter = 0;

        /** The encryption-counter entry overflowed. */
        bool overflowed = false;

        /** Data lines whose encryption counter changed and therefore
         *  need re-encryption (includes the written line on overflow). */
        std::vector<LineAddr> reencrypt;

        /** Overflow-reset events that occurred at tree levels >= 1. */
        unsigned treeOverflows = 0;

        /** MCR rebases that absorbed would-be overflows. */
        unsigned rebases = 0;
    };

    /** A data-line MAC computed in the tree's passes, as one more
     *  lane. The caller sets payload and tagBits (1..64); the tree sets
     *  counter (the line's encryption counter, read from the path) and
     *  tag. */
    struct DataLane
    {
        const CachelineData *payload = nullptr;
        unsigned tagBits = 64;
        std::uint64_t counter = 0;
        std::uint64_t tag = 0;
    };

    /** The level-0 part of a BumpResult — rebase, overflow, lines to
     *  re-encrypt, new counter — from a level-0 counter bump. */
    static BumpResult leafResult(const CounterTreeState &state,
                                 const CounterTreeState::Bump &bump);

    IntegrityTree(std::uint64_t mem_bytes, const TreeConfig &config,
                  const SipKey &mac_key);
    ~IntegrityTree();

    // The bump's packer refers to macEngine_.
    IntegrityTree(const IntegrityTree &) = delete;
    IntegrityTree &operator=(const IntegrityTree &) = delete;

    /** Current effective encryption counter of @p data_line. */
    std::uint64_t counterOf(LineAddr data_line);

    /**
     * Increment the encryption counter of @p data_line (one data
     * write), propagating entry updates and MAC recomputation to the
     * root. Every stored MAC is consistent on return.
     */
    BumpResult bumpCounter(LineAddr data_line);

    /**
     * The counter half of bumpCounter: every counter on the path is
     * final on return, but the MACs of the bump's last partial pass
     * are stale until finishBump(). Nothing but finishBump() may MAC
     * or verify in between.
     */
    BumpResult beginBump(LineAddr data_line);

    /**
     * Reseal the MACs the last beginBump() left pending, with @p data
     * (if given) as one more lane: the MAC of the bumped line under its
     * new counter.
     */
    void finishBump(DataLane *data = nullptr);

    /**
     * Verify the MAC chain protecting @p data_line's encryption
     * counter, from its level-0 entry to the root, looking each entry
     * up once and MACing the levels four per pass. With @p data, also
     * MAC the line itself in the same passes.
     *
     * @retval true if every MAC on the path matches (@p data's tag is
     *         the caller's to compare)
     */
    bool verify(LineAddr data_line, DataLane *data = nullptr);

    /** Verify every materialized entry in the tree. */
    bool verifyAll();

    /** Raw image of a metadata entry (materializes it if absent). */
    const CachelineData &rawEntry(unsigned level, std::uint64_t index)
    {
        return entryAt(level, index);
    }

    /**
     * Overwrite a stored entry image, bypassing all protection — the
     * adversary interface used by tamper/replay tests and demos.
     */
    void injectEntry(unsigned level, std::uint64_t index,
                     const CachelineData &image);

    const TreeGeometry &geometry() const { return state_.geometry(); }

    /** The counters beneath the MACs; writes through it bypass the
     *  MACs (SecureMemory's Merkle scheme keeps its counters here). */
    CounterTreeState &state() { return state_; }

    /** Overflow-reset events observed at @p level since construction. */
    std::uint64_t overflowEvents(unsigned level) const;

    /** Number of materialized entries at @p level. */
    std::uint64_t materializedEntries(unsigned level) const;

    /** The engine of every tree MAC and of DataLane tags. */
    const MacEngine &macEngine() const { return macEngine_; }

  private:
    CachelineData &entryAt(unsigned level, std::uint64_t index);
    std::uint64_t entryMac(unsigned level, std::uint64_t index,
                           const CachelineData &image);
    void resealEntry(unsigned level, std::uint64_t index,
                     CachelineData &image);

    CounterTreeState state_;
    MacEngine macEngine_;
    std::vector<std::uint64_t> overflows_; // per level

    // Between beginBump() and finishBump(): the reseals of the bump's
    // partial pass, and the bumped line and its new counter.
    MacPacker bumpLanes_;
    bool bumping_ = false;
    LineAddr bumpLine_ = 0;
    std::uint64_t bumpCounter_ = 0;
};

} // namespace morph

#endif // MORPH_INTEGRITY_INTEGRITY_TREE_HH
