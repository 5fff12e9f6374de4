#include "secmem/secure_memory_model.hh"


#include "common/check.hh"
#include "common/prof.hh"
#include "common/stat_registry.hh"

namespace morph
{

SecureMemoryModel::SecureMemoryModel(const SecureModelConfig &config)
    : config_(config), geom_(config.memBytes, config.tree),
      mdcache_(config.metadataCacheBytes, config.metadataCacheWays,
               geom_)
{
    const auto &levels = geom_.levels();
    formats_.reserve(levels.size());
    store_.resize(levels.size());
    for (const auto &info : levels)
        formats_.push_back(makeCounterFormat(info.kind));

    // Separate-MAC mode: one 64-bit MAC per data line, 8 per MAC line,
    // in a slab above all other metadata.
    macBaseLine_ = geom_.totalBytes() / lineBytes;

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

CachelineData &
SecureMemoryModel::entryImage(unsigned level, std::uint64_t index)
{
    if (CachelineData *image = store_[level].find(index))
        return *image;
    CachelineData &image = store_[level][index];
    formats_[level]->init(image);
    return image;
}

std::uint64_t
SecureMemoryModel::counterOf(LineAddr data_line)
{
    const std::uint64_t index = geom_.parentIndex(0, data_line);
    const unsigned slot = geom_.childSlot(0, data_line);
    return formats_[0]->read(entryImage(0, index), slot);
}

LineAddr
SecureMemoryModel::macLineOf(LineAddr data_line) const
{
    return macBaseLine_ + data_line / 8;
}

/**
 * Guarantee the metadata entry is on-chip, generating the read +
 * upward verification walk on a miss (paper §II-B): the walk stops at
 * the first cached ancestor or the root.
 */
void
SecureMemoryModel::ensureCached(unsigned level, std::uint64_t index,
                                std::vector<MemAccess> &out,
                                bool critical)
{
    if (level == geom_.rootLevel())
        return; // root registers live on-chip

    // Recursion shows up as nested secmem.tree_walk chains in a
    // profile: depth == levels actually walked past the cache.
    MORPH_PROF_SCOPE("secmem.tree_walk");
    const LineAddr line = geom_.lineOfEntry(level, index);
    if (mdcache_.access(line))
        return; // found securely cached: traversal terminates

    out.push_back({line, AccessType::Read, trafficForLevel(level),
                   critical});
    stats_.count(trafficForLevel(level), false);
    insertMetadata(line, false, out);

    if (config_.counterPrefetch && level == 0 &&
        index + 1 < geom_.levels()[0].entries) {
        const LineAddr next = geom_.lineOfEntry(0, index + 1);
        if (!mdcache_.contains(next)) {
            out.push_back({next, AccessType::Read, Traffic::CtrEncr,
                           false});
            stats_.count(Traffic::CtrEncr, false);
            insertMetadata(next, false, out);
        }
    }

    // Verification walk: with speculative verification the ancestor
    // reads still consume bandwidth but no longer gate the load.
    ensureCached(level + 1, geom_.parentIndex(level + 1, index), out,
                 critical && !config_.speculativeVerification);
}

/** Insert a metadata line, handling a possible dirty victim. */
void
SecureMemoryModel::insertMetadata(LineAddr line, bool dirty,
                                  std::vector<MemAccess> &out)
{
    InsertPosition position = InsertPosition::Mru;
    if (config_.demoteEncCounters) {
        unsigned level;
        std::uint64_t index;
        if (geom_.entryOfLine(line, level, index) && level == 0)
            position = InsertPosition::Lru;
    }
    const auto evicted = mdcache_.insert(line, dirty, position);
    if (!evicted || !evicted->dirty)
        return;

    unsigned ev_level;
    std::uint64_t ev_index;
    if (geom_.entryOfLine(evicted->line, ev_level, ev_index)) {
        handleDirtyWriteback(ev_level, ev_index, out);
    } else {
        // A dirty separate-mode MAC line: plain write-back.
        out.push_back({evicted->line, AccessType::Write, Traffic::Mac,
                       false});
        stats_.count(Traffic::Mac, true);
    }
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
    out.push_back({geom_.lineOfEntry(level, index), AccessType::Write,
                   trafficForLevel(level), false});
    stats_.count(trafficForLevel(level), true);

    // The line leaves the chip: under the lazy persist policy this is
    // the moment NVM takes the new image, ahead of the root commit.
    if (persist_)
        persist_->onDirtyWriteback(level, geom_.lineOfEntry(level, index),
                                   entryImage(level, index));

    if (level == geom_.rootLevel())
        return;
    bumpEntryCounter(level + 1, index, out);
}

/**
 * Increment the counter at @p level covering child entry
 * @p child_index of the level below, fetching the entry and handling
 * overflow resets.
 */
void
SecureMemoryModel::bumpEntryCounter(unsigned level,
                                    std::uint64_t child_index,
                                    std::vector<MemAccess> &out)
{
    MORPH_CHECK(level >= 1);
    if (level > geom_.rootLevel())
        return;

    MORPH_PROF_SCOPE("secmem.ctr_bump");
    const std::uint64_t index = geom_.parentIndex(level, child_index);
    const unsigned slot = geom_.childSlot(level, child_index);

    ensureCached(level, index, out, false);

    const WriteResult res =
        formats_[level]->increment(entryImage(level, index), slot);
    if (level != geom_.rootLevel())
        mdcache_.markDirty(geom_.lineOfEntry(level, index));
    if (persist_)
        persist_->onEntryUpdate(level, geom_.lineOfEntry(level, index),
                                entryImage(level, index));

    const unsigned bin = std::min<unsigned>(level, 7);
    if (res.rebase)
        ++stats_.rebasesByLevel[bin];
    if (res.formatSwitch)
        ++stats_.morphsByLevel[bin];
    if (res.overflow) {
        ++stats_.overflowsByLevel[bin];
        stats_.usageAtOverflow.record(double(res.usedBefore) /
                                      double(formats_[level]->arity()));
        // Re-hash every affected child entry: read + write each.
        emitOverflowTraffic(level, index, res.reencBegin, res.reencEnd,
                            out);
    }
}

/**
 * Overflow reset at @p level: children [begin, end) of entry
 * @p entry_index changed protecting counters — each is read, updated
 * (re-encrypted for level 0 children, re-MACed for metadata children)
 * and written back. The children's counter images are unchanged (only
 * data payloads / MACs refresh, which this model does not store), so
 * these writes are persist-neutral: the durable copies stay valid.
 */
void
SecureMemoryModel::emitOverflowTraffic(unsigned level,
                                       std::uint64_t entry_index,
                                       unsigned begin, unsigned end,
                                       std::vector<MemAccess> &out)
{
    MORPH_PROF_SCOPE("secmem.overflow");
    const unsigned arity = geom_.levels()[level].arity;
    const std::uint64_t child_base = entry_index * arity;

    // Children of a level-L entry live at level L-1; children of a
    // level-0 (encryption counter) entry are the data lines.
    std::uint64_t child_count;
    LineAddr child_line_base;
    if (level == 0) {
        child_count = geom_.dataLines();
        child_line_base = 0;
    } else {
        child_count = geom_.levels()[level - 1].entries;
        child_line_base = geom_.levels()[level - 1].baseLine;
    }

    for (unsigned c = begin; c < end; ++c) {
        const std::uint64_t child = child_base + c;
        if (child >= child_count)
            break;
        const LineAddr line = child_line_base + child;
        out.push_back({line, AccessType::Read, Traffic::Overflow,
                       false});
        out.push_back({line, AccessType::Write, Traffic::Overflow,
                       false});
        stats_.count(Traffic::Overflow, false);
        stats_.count(Traffic::Overflow, true);
    }
}

void
SecureMemoryModel::onDataAccess(LineAddr data_line, AccessType type,
                                std::vector<MemAccess> &out)
{
    MORPH_PROF_SCOPE("secmem.data_access");
    MORPH_CHECK_LT(data_line, geom_.dataLines());
    const bool is_write = type == AccessType::Write;

    out.push_back({data_line, type, Traffic::Data, !is_write});
    stats_.count(Traffic::Data, is_write);

    if (!config_.secure)
        return;

    const std::uint64_t index = geom_.parentIndex(0, data_line);
    const unsigned slot = geom_.childSlot(0, data_line);

    // The encryption counter is needed for both directions: OTP
    // generation on reads (critical), counter bump on writes (posted).
    ensureCached(0, index, out, !is_write);

    if (is_write) {
        const WriteResult res =
            formats_[0]->increment(entryImage(0, index), slot);
        mdcache_.markDirty(geom_.lineOfEntry(0, index));
        if (persist_)
            persist_->onEntryUpdate(0, geom_.lineOfEntry(0, index),
                                    entryImage(0, index));
        if (res.rebase)
            ++stats_.rebasesByLevel[0];
        if (res.formatSwitch)
            ++stats_.morphsByLevel[0];
        if (res.overflow) {
            ++stats_.overflowsByLevel[0];
            stats_.usageAtOverflow.record(
                double(res.usedBefore) / double(formats_[0]->arity()));
            emitOverflowTraffic(0, index, res.reencBegin, res.reencEnd,
                                out);
        }
    }

    if (!config_.inlineMacs) {
        // Separate-MAC organization: every data access also touches
        // the MAC line (reads verify, writes update).
        const LineAddr mac_line = macLineOf(data_line);
        if (!mdcache_.access(mac_line, is_write)) {
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
