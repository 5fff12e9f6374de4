/**
 * @file
 * Crash-consistent persistence model for counter/tree metadata (NVM).
 *
 * The paper's design assumes the metadata cache is volatile and DRAM
 * loses state with the machine; on NVM the counters, tree entries and
 * the root must instead survive a crash in a *mutually consistent*
 * state, or the whole protected region is unverifiable at reboot —
 * the problem attacked by Phoenix and "Streamlining Integrity Tree
 * Updates for Secure Persistent Non-Volatile Memory".
 *
 * PersistDomain models the durable half of that system as a pure
 * observer of the volatile SecureMemoryModel: it never feeds back
 * into counter values, cache behaviour or traffic, so enabling it
 * cannot perturb any existing result (pinned by tests). It tracks
 *
 *  - the durable metadata image: every counter/tree line as last
 *    written to NVM,
 *  - the persisted root: a digest of the durable image, standing in
 *    for the on-chip root register that an atomic root update commits
 *    to a persistent register (battery-backed or flushed-on-crash),
 *  - a write-ahead undo log (lazy policy) of durable pre-images, so
 *    recovery can roll uncommitted line persists back to the state
 *    the persisted root covers.
 *
 * Two root-update policies (paper-adjacent design points):
 *
 *  strict: every volatile entry mutation persists the line and
 *    atomically re-commits the root. Durable state always equals
 *    volatile state — recovery is trivial and loses nothing, but
 *    every counter bump costs a line persist + root persist.
 *
 *  lazy: mutations stay volatile. A line reaches NVM only when the
 *    metadata cache evicts it dirty (write-ahead: its durable
 *    pre-image is logged first), and every `epochWrites` data writes
 *    an epoch barrier flushes all pending mutations, re-commits the
 *    root and truncates the log. Recovery rolls the log back and
 *    loses at most one epoch of writes.
 *
 * recover() replays exactly what a post-crash verifier would do:
 * undo the log, re-derive the root digest from the durable lines, and
 * compare it against the persisted root. morphverify's --recovery
 * sweep drives this from crash cuts at arbitrary access indexes.
 */

#ifndef MORPH_SECMEM_PERSIST_DOMAIN_HH
#define MORPH_SECMEM_PERSIST_DOMAIN_HH

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/types.hh"

namespace morph
{

class StatRegistry;

/** Tree-root update policy of the persist domain. */
enum class PersistPolicy : std::uint8_t
{
    Strict, ///< persist line + root on every entry mutation
    Lazy,   ///< persist on dirty eviction; root at epoch barriers
};

/** Configuration of the persistence model (off by default). */
struct PersistConfig
{
    bool enabled = false;
    PersistPolicy policy = PersistPolicy::Strict;

    /** Lazy policy: data writes between epoch barriers. */
    std::uint64_t epochWrites = 4096;

    /**
     * WILL_FAIL fixture: tree-level (level >= 1) persists skip their
     * write-ahead obligation — strict omits the root re-commit, lazy
     * omits the undo-log record — so recovery after a crash in the
     * exposure window reconstructs an inconsistent tree. Used to
     * prove the morphverify recoverability check actually fires.
     */
    bool brokenSkipTreePersist = false;

    bool operator==(const PersistConfig &) const = default;
};

/** Persist-traffic counters (the strict-vs-lazy cost axis). */
struct PersistStats
{
    std::uint64_t linePersists = 0;   ///< metadata lines written to NVM
    std::uint64_t rootPersists = 0;   ///< atomic root re-commits
    std::uint64_t logAppends = 0;     ///< undo-log records (write-ahead)
    std::uint64_t barriers = 0;       ///< lazy epoch barriers completed
    std::uint64_t barrierFlushes = 0; ///< pending lines flushed at barriers
    std::uint64_t entryMutations = 0; ///< volatile mutations observed

    /** Register counters under @p prefix (morphscope naming). */
    void registerStats(StatRegistry &registry,
                       const std::string &prefix) const;

    void reset() { *this = PersistStats{}; }
};

/** Outcome of replaying recovery from the current durable state. */
struct RecoveryReport
{
    bool consistent = false;      ///< recovered digest == persisted root
    std::uint64_t durableEntries = 0; ///< durable lines after rollback
    std::uint64_t rolledBack = 0; ///< undo records applied in reverse
    std::uint64_t lostWrites = 0; ///< mutations the recovered state drops
    std::uint64_t recoveredDigest = 0;
    std::uint64_t persistedRoot = 0;
};

/** Durable-state tracker for one SecureMemoryModel (see file header). */
class PersistDomain
{
  public:
    explicit PersistDomain(const PersistConfig &config);

    /** A volatile entry mutated (counter bump / overflow reset).
     *  @p line is the entry's physical line, @p level its tree level,
     *  @p image the post-mutation contents. */
    void onEntryUpdate(unsigned level, LineAddr line,
                       const CachelineData &image);

    /** A dirty metadata line left the chip (cache eviction). */
    void onDirtyWriteback(unsigned level, LineAddr line,
                          const CachelineData &image);

    /** A data write retired (the lazy epoch clock). */
    void onDataWrite();

    /** End of run: drain pending mutations through a final barrier so
     *  persist counts are complete and the durable state is clean. */
    void finish();

    /**
     * Replay post-crash recovery from the current durable state:
     * apply the undo log in reverse, re-derive the root digest from
     * the recovered lines, compare against the persisted root. Pure —
     * the live state is not modified, so a run can be probed at any
     * cut point.
     */
    RecoveryReport recover() const;

    /** Order-independent digest over (durable image, persisted root,
     *  undo log, pending set): the crash-injector determinism pin. */
    std::uint64_t durableFingerprint() const;

    /** Volatile mutations not yet persisted (lazy exposure window). */
    std::uint64_t pendingEntries() const { return pendingLines_.size(); }

    const PersistStats &stats() const { return stats_; }
    void resetStats() { stats_.reset(); }
    const PersistConfig &config() const { return config_; }

  private:
    /** One write-ahead undo record: the durable pre-image of a line
     *  persisted between barriers. */
    struct UndoRecord
    {
        LineAddr line;
        bool hadPrev;
        CachelineData prev;
    };

    std::uint64_t entryHash(LineAddr line,
                            const CachelineData &image) const;
    /** Write @p image to the durable store, maintaining the digest.
     *  @p foldDigest false models the broken unpersisted-tree-write. */
    void persistLine(LineAddr line, const CachelineData &image,
                     bool foldDigest);
    void appendUndo(LineAddr line);
    void commitRoot();
    void barrier();

    PersistConfig config_;
    std::unordered_map<LineAddr, CachelineData> durable_;
    std::unordered_map<LineAddr, CachelineData> pendingLines_;
    std::vector<UndoRecord> undoLog_;
    std::uint64_t durableDigest_ = 0; ///< XOR set-hash over durable_
    std::uint64_t persistedRoot_ = 0;
    std::uint64_t epochClock_ = 0;    ///< data writes since last barrier
    std::uint64_t mutationsSinceRoot_ = 0;
    PersistStats stats_;
};

} // namespace morph

#endif // MORPH_SECMEM_PERSIST_DOMAIN_HH
