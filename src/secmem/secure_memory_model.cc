#include "secmem/secure_memory_model.hh"

#include "common/check.hh"
#include "common/prof.hh"
#include "common/stat_registry.hh"

namespace morph
{

SecureMemoryModel::SecureMemoryModel(const SecureModelConfig &config)
    : config_(config), state_(config.memBytes, config.tree),
      mdcache_(config.metadataCacheBytes, config.metadataCacheWays,
               state_.geometry())
{
    // Separate-MAC mode: one 64-bit MAC per data line, 8 per MAC line,
    // in a slab above all other metadata.
    macBaseLine_ = geometry().totalBytes() / lineBytes;

    if (config_.persist.enabled)
        persist_ = std::make_unique<PersistDomain>(config_.persist);
}

SecureMemoryModel::~SecureMemoryModel() = default;

void
SecureMemoryModel::resetStats()
{
    stats_.reset();
    mdcache_.resetStats();
    if (persist_)
        persist_->resetStats();
}

void
SecureMemoryModel::finishRun()
{
    if (persist_)
        persist_->finish();
}

void
SecureMemoryModel::registerStats(StatRegistry &registry,
                                 const std::string &prefix,
                                 bool occupancy) const
{
    const std::string scope = prefix.empty() ? "" : prefix + ".";
    stats_.registerStats(registry, scope + "traffic");
    mdcache_.registerStats(registry, scope + "mdcache", occupancy);
    if (persist_)
        persist_->stats().registerStats(registry, scope + "persist");
}

LineAddr
SecureMemoryModel::macLineOf(LineAddr data_line) const
{
    return macBaseLine_ + data_line / 8;
}

/**
 * Guarantee the metadata entry is on-chip, generating the read +
 * upward verification walk on a miss (paper §II-B): the walk stops at
 * the first cached ancestor or the root. Each level probes its set
 * once; a missing line is filled without a second lookup. Returns the
 * way the requested entry was found or filled in (npos for the root),
 * which the walk's own write-back cascade may since have evicted.
 */
MetadataCache::Way
SecureMemoryModel::ensureCached(unsigned level, std::uint64_t index,
                                std::vector<MemAccess> &out,
                                bool critical)
{
    const unsigned root = geometry().rootLevel();
    if (level == root)
        return MetadataCache::npos; // root registers live on-chip

    MORPH_PROF_SCOPE("secmem.tree_walk");
    MetadataCache::Way entry_way = MetadataCache::npos;
    for (unsigned l = level; l != root; ++l) {
        const LineAddr line = geometry().lineOfEntry(l, index);
        const MetadataCache::Way hit = mdcache_.probe(line);
        if (l == level)
            entry_way = hit;
        if (hit != MetadataCache::npos)
            break; // found securely cached: traversal terminates

        out.push_back({line, AccessType::Read, trafficForLevel(l),
                       critical});
        stats_.count(trafficForLevel(l), false);
        const MetadataCache::Way filled = insertMetadata(line, false, out);
        if (l == level)
            entry_way = filled;

        if (config_.counterPrefetch && l == 0 &&
            index + 1 < geometry().levels()[0].entries) {
            const LineAddr next = geometry().lineOfEntry(0, index + 1);
            if (!mdcache_.contains(next)) {
                out.push_back({next, AccessType::Read, Traffic::CtrEncr,
                               false});
                stats_.count(Traffic::CtrEncr, false);
                insertMetadata(next, false, out);
            }
        }

        // Verification walk: with speculative verification the
        // ancestor reads still consume bandwidth but no longer gate
        // the load.
        index = geometry().parentIndex(l + 1, index);
        critical = critical && !config_.speculativeVerification;
    }
    return entry_way;
}

/**
 * Fill a metadata line known to be absent, handling a possible dirty
 * victim. Returns the line's way.
 */
MetadataCache::Way
SecureMemoryModel::insertMetadata(LineAddr line, bool dirty,
                                  std::vector<MemAccess> &out)
{
    InsertPosition position = InsertPosition::Mru;
    if (config_.demoteEncCounters) {
        unsigned level;
        std::uint64_t index;
        if (geometry().entryOfLine(line, level, index) && level == 0)
            position = InsertPosition::Lru;
    }
    const Cache::Fill fill = mdcache_.fill(line, dirty, position);
    if (!fill.evicted || !fill.evicted->dirty)
        return fill.way;

    unsigned ev_level;
    std::uint64_t ev_index;
    if (geometry().entryOfLine(fill.evicted->line, ev_level, ev_index)) {
        handleDirtyWriteback(ev_level, ev_index, out);
    } else {
        // A dirty separate-mode MAC line: plain write-back.
        out.push_back({fill.evicted->line, AccessType::Write,
                       Traffic::Mac, false});
        stats_.count(Traffic::Mac, true);
    }
    return fill.way;
}

/**
 * A dirty metadata entry leaves the chip: write it back and propagate
 * the write up the tree by incrementing its parent counter.
 */
void
SecureMemoryModel::handleDirtyWriteback(unsigned level,
                                        std::uint64_t index,
                                        std::vector<MemAccess> &out)
{
    out.push_back({geometry().lineOfEntry(level, index), AccessType::Write,
                   trafficForLevel(level), false});
    stats_.count(trafficForLevel(level), true);

    // The line leaves the chip: under the lazy persist policy this is
    // the moment NVM takes the new image, ahead of the root commit.
    if (persist_)
        persist_->onDirtyWriteback(level,
                                   geometry().lineOfEntry(level, index),
                                   state_.entry(level, index));

    if (level == geometry().rootLevel())
        return;
    MORPH_PROF_SCOPE("secmem.ctr_bump");
    const MetadataCache::Way way = ensureCached(
        level + 1, geometry().parentIndex(level + 1, index), out, false);
    bumpCounter(level + 1, index, out, way);
}

/**
 * Increment the counter at @p level covering @p child (a data line
 * for level 0, else an entry of the level below); the entry, already
 * on-chip, turns dirty; @p way is where ensureCached() left it. On an
 * overflow reset every affected child is
 * read, re-encrypted or re-MACed, and written back. Those writes are
 * persist-neutral: the children's counter images do not change.
 */
void
SecureMemoryModel::bumpCounter(unsigned level, std::uint64_t child,
                               std::vector<MemAccess> &out,
                               MetadataCache::Way way)
{
    const CounterTreeState::Bump bump = state_.bump(level, child);
    const LineAddr line = geometry().lineOfEntry(level, bump.index);
    if (level != geometry().rootLevel())
        mdcache_.markDirty(line, way);
    if (persist_)
        persist_->onEntryUpdate(level, line, *bump.image);

    const WriteResult &res = bump.result;
    const unsigned bin = std::min<unsigned>(level, 7);
    if (res.rebase)
        ++stats_.rebasesByLevel[bin];
    if (res.formatSwitch)
        ++stats_.morphsByLevel[bin];
    if (!res.overflow)
        return;
    ++stats_.overflowsByLevel[bin];
    stats_.usageAtOverflow.record(double(res.usedBefore) /
                                  double(state_.format(level).arity()));

    MORPH_PROF_SCOPE("secmem.overflow");
    const LineAddr child_base =
        level == 0 ? 0 : geometry().levels()[level - 1].baseLine;
    for (std::uint64_t c = bump.childBegin; c < bump.childEnd; ++c) {
        out.push_back({child_base + c, AccessType::Read,
                       Traffic::Overflow, false});
        out.push_back({child_base + c, AccessType::Write,
                       Traffic::Overflow, false});
        stats_.count(Traffic::Overflow, false);
        stats_.count(Traffic::Overflow, true);
    }
}

void
SecureMemoryModel::onDataAccess(LineAddr data_line, AccessType type,
                                std::vector<MemAccess> &out)
{
    MORPH_PROF_SCOPE("secmem.data_access");
    MORPH_CHECK_LT(data_line, geometry().dataLines());
    const bool is_write = type == AccessType::Write;

    out.push_back({data_line, type, Traffic::Data, !is_write});
    stats_.count(Traffic::Data, is_write);

    if (!config_.secure)
        return;

    // The encryption counter is needed for both directions: OTP
    // generation on reads (critical), counter bump on writes (posted).
    const MetadataCache::Way way = ensureCached(
        0, geometry().parentIndex(0, data_line), out, !is_write);
    if (is_write)
        bumpCounter(0, data_line, out, way);

    if (!config_.inlineMacs) {
        // Separate-MAC organization: every data access also touches
        // the MAC line (reads verify, writes update).
        const LineAddr mac_line = macLineOf(data_line);
        if (mdcache_.probe(mac_line, is_write) == MetadataCache::npos) {
            out.push_back({mac_line, AccessType::Read, Traffic::Mac,
                           !is_write});
            stats_.count(Traffic::Mac, false);
            insertMetadata(mac_line, is_write, out);
        }
    }

    // Retired data write: advances the lazy policy's epoch clock
    // (and may fire a barrier). Last so the barrier covers every
    // metadata mutation this access generated.
    if (persist_ && is_write)
        persist_->onDataWrite();
}

} // namespace morph
