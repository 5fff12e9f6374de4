/**
 * @file
 * Cycle-model secure memory controller (traffic and cache behaviour).
 *
 * Translates each post-LLC data access into the set of DRAM accesses
 * secure execution generates, following the paper's model:
 *
 *  read:  fetch the encryption-counter entry through the metadata
 *         cache; on a miss, walk the integrity tree upward, fetching
 *         entries from memory until one is found cached (or the
 *         on-chip root is reached). These fetches are on the load's
 *         critical path.
 *
 *  write: fetch the counter entry likewise, increment the written
 *         line's counter in place and mark the entry dirty in the
 *         metadata cache. Writes propagate up the tree only when a
 *         dirty entry is evicted: the write-back increments the parent
 *         counter (fetching the parent if needed), which is why levels
 *         that fit in the cache never see overflow pressure.
 *
 *  overflow: an overflow reset at level L generates one read + one
 *         write per affected child (re-encryption of data lines for
 *         L = 0, re-hash of child entries for L >= 1), categorized as
 *         Overflow traffic.
 *
 * Counter entries are maintained bit-exactly (real ZCC/MCR/SC images)
 * so overflow rates, format morphs and rebases are faithful; data
 * payloads and MAC values are not modelled here (SecureMemory does
 * that functionally).
 */

#ifndef MORPH_SECMEM_SECURE_MEMORY_MODEL_HH
#define MORPH_SECMEM_SECURE_MEMORY_MODEL_HH

#include <memory>
#include <optional>
#include <vector>

#include "integrity/counter_tree_state.hh"
#include "secmem/metadata_cache.hh"
#include "secmem/persist_domain.hh"
#include "secmem/traffic_stats.hh"

namespace morph
{

/** One DRAM access produced by the controller. */
struct MemAccess
{
    LineAddr line;     ///< physical line address (data or metadata)
    AccessType type;   ///< read or write
    Traffic category;  ///< attribution for Figs 5/16
    bool critical;     ///< completion blocks the requesting load
};

/** Configuration of the cycle-model controller. */
struct SecureModelConfig
{
    std::uint64_t memBytes = 16ull << 30;
    TreeConfig tree = TreeConfig::sc64();
    std::size_t metadataCacheBytes = 128 * 1024;
    unsigned metadataCacheWays = 8;
    bool inlineMacs = true; ///< Synergy in-line MACs (Fig 20 toggles)
    bool secure = true;     ///< false models the non-secure baseline

    /**
     * PoisonIvy/ASE-style speculative verification: data is consumed
     * while the tree walk completes in the background, so walk reads
     * above the counter entry leave the load's critical path. The
     * bandwidth cost remains — exactly the distinction the paper
     * draws (§VIII-B2).
     */
    bool speculativeVerification = false;

    /**
     * Next-entry counter prefetch: a miss on encryption-counter entry
     * N also fetches entry N+1 (non-critical, unverified until used).
     * Helps streaming workloads; pure bandwidth overhead for random
     * ones.
     */
    bool counterPrefetch = false;

    /**
     * Type-aware metadata-cache insertion (Lee et al., §VIII-B2):
     * encryption-counter entries — the class with the least reuse per
     * byte — insert at LRU so tree entries keep residency.
     */
    bool demoteEncCounters = false;

    /**
     * NVM persistence model (off by default). When enabled, a
     * PersistDomain observes counter/tree mutations and dirty
     * writebacks to track the durable metadata image — a pure
     * observer, so every volatile statistic is bit-identical with
     * persistence on or off. Separate-mode MAC images are not
     * modelled and sit outside the domain; under the default Synergy
     * in-line organization MACs ride in the data lines, which NVM
     * makes durable with the data itself.
     */
    PersistConfig persist;

    bool operator==(const SecureModelConfig &) const = default;
};

/** Trace-level secure memory controller model. */
class SecureMemoryModel
{
  public:
    explicit SecureMemoryModel(const SecureModelConfig &config);
    ~SecureMemoryModel();

    /**
     * Process one data access and append every DRAM access it
     * generates to @p out (the data access itself included).
     */
    void onDataAccess(LineAddr data_line, AccessType type,
                      std::vector<MemAccess> &out);

    const TrafficStats &stats() const { return stats_; }
    void resetStats();

    /**
     * Register traffic and metadata-cache statistics into
     * @p registry under @p prefix ("traffic.*", "mdcache.*"). With
     * @p occupancy, per-tree-level residency gauges are included
     * (linear cache walks at sample time — reporting only).
     */
    void registerStats(StatRegistry &registry,
                       const std::string &prefix,
                       bool occupancy = false) const;

    const TreeGeometry &geometry() const { return state_.geometry(); }
    const MetadataCache &metadataCache() const { return mdcache_; }
    const SecureModelConfig &config() const { return config_; }

    /** Effective counter of @p data_line (model introspection). */
    std::uint64_t counterOf(LineAddr data_line)
    {
        return state_.counterOf(data_line);
    }

    /** End of run: drain the persist domain's pending mutations
     *  through a final barrier (no-op without persistence). */
    void finishRun();

    /** The persistence model, or nullptr when disabled. */
    const PersistDomain *persistDomain() const { return persist_.get(); }

  private:
    /**
     * A tree walk: the counter fetch of a data access, or the parent
     * fetch of a dirty write-back. It starts at its entry's level and
     * climbs until a level hits or the root is reached; then, if
     * `bump`, it bumps the counter of `child` at its entry level.
     */
    struct Walk
    {
        /** Where the walk resumes at `level`. */
        enum class Step : std::uint8_t
        {
            Probe,    ///< look the entry up; on a miss read and fill it
            Prefetch, ///< after a level-0 fill: the next-entry prefetch
            Ascend,   ///< move to the parent entry
        };

        unsigned level;      ///< level of `index`
        std::uint64_t index; ///< entry index within `level`
        bool critical;       ///< its reads gate the requesting load
        Step step = Step::Probe;
        unsigned entryLevel; ///< level the walk started at
        MetadataCache::Way entryWay = MetadataCache::npos; ///< its way
        bool bump = false;   ///< bump `child` at entryLevel when done
        std::uint64_t child = 0;
    };

    void runWalk(Walk walk, std::vector<MemAccess> &out);
    std::optional<Walk> climb(Walk &walk, std::vector<MemAccess> &out);
    std::optional<Walk> insertMetadata(LineAddr line, bool dirty,
                                       MetadataCache::Way victim,
                                       std::vector<MemAccess> &out);
    std::optional<Walk> handleDirtyWriteback(unsigned level,
                                             std::uint64_t index,
                                             std::vector<MemAccess> &out);
    void bumpCounter(unsigned level, std::uint64_t child,
                     std::vector<MemAccess> &out, MetadataCache::Way way);
    LineAddr macLineOf(LineAddr data_line) const;

    SecureModelConfig config_;
    CounterTreeState state_;
    MetadataCache mdcache_;
    TrafficStats stats_;
    std::unique_ptr<PersistDomain> persist_;
    LineAddr macBaseLine_ = 0;
    std::vector<Walk> walks_; ///< walks paused by a write-back
};

} // namespace morph

#endif // MORPH_SECMEM_SECURE_MEMORY_MODEL_HH
