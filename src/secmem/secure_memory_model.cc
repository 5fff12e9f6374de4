#include "secmem/secure_memory_model.hh"

#include "common/check.hh"
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
 * Run @p walk, and every write-back walk it starts, to the end. A walk
 * that climb()s to its end bumps its counter if it has one to bump. A
 * walk that a write-back pauses waits on walks_ while the write-back's
 * walk runs, then resumes: the order of emitted accesses is that of a
 * recursive walk, without the recursion.
 *
 * Both are forced inline into onDataAccess(): out of line, the walk's
 * state passes through memory on every access, which measured 15-20%
 * more time per access on a seeded secmem-only stream.
 */
[[gnu::always_inline]] inline void
SecureMemoryModel::runWalk(Walk walk, std::vector<MemAccess> &out)
{
    while (true) {
        if (std::optional<Walk> writeback = climb(walk, out)) {
            walks_.push_back(walk);
            walk = *writeback;
            continue;
        }
        if (walk.bump)
            bumpCounter(walk.entryLevel, walk.child, out, walk.entryWay);
        if (walks_.empty())
            return;
        walk = walks_.back();
        walks_.pop_back();
    }
}

/**
 * Make @p walk's entry on-chip, generating the read + upward
 * verification walk on a miss (paper §II-B): the walk stops at the
 * first cached ancestor or the root. Each level scans its set once: a
 * miss fills the victim way that scan picked. A fill that evicts a
 * dirty entry pauses the walk where it is and returns the entry's
 * write-back walk; nullopt means the walk is done.
 */
[[gnu::always_inline]] inline std::optional<SecureMemoryModel::Walk>
SecureMemoryModel::climb(Walk &walk, std::vector<MemAccess> &out)
{
    const unsigned root = geometry().rootLevel();
    // The walk's state lives in locals; `walk` is written back when
    // the walk pauses.
    unsigned l = walk.level;
    std::uint64_t index = walk.index;
    bool critical = walk.critical;
    Walk::Step step = walk.step;
    const auto pause = [&](Walk::Step resume) {
        walk.level = l;
        walk.index = index;
        walk.critical = critical;
        walk.step = resume;
    };
    for (; l != root; ++l) {
        if (step == Walk::Step::Probe) {
            const LineAddr line = geometry().lineOfEntry(l, index);
            const Cache::Lookup slot = mdcache_.lookup(line);
            if (l == walk.entryLevel)
                walk.entryWay = slot.way;
            if (slot.hit)
                return std::nullopt; // found securely cached: walk ends

            out.push_back({line, AccessType::Read, trafficForLevel(l),
                           critical});
            stats_.count(trafficForLevel(l), false);
            if (auto writeback = insertMetadata(line, false, slot.way, out)) {
                pause(Walk::Step::Prefetch);
                return writeback;
            }
        }
        if (step != Walk::Step::Ascend && config_.counterPrefetch &&
            l == 0 && index + 1 < geometry().levels()[0].entries) {
            const LineAddr next = geometry().lineOfEntry(0, index + 1);
            const Cache::Lookup slot = mdcache_.peek(next);
            if (!slot.hit) {
                out.push_back({next, AccessType::Read, Traffic::CtrEncr,
                               false});
                stats_.count(Traffic::CtrEncr, false);
                if (auto writeback =
                        insertMetadata(next, false, slot.way, out)) {
                    pause(Walk::Step::Ascend);
                    return writeback;
                }
            }
        }

        // Verification walk: with speculative verification the
        // ancestor reads still consume bandwidth but no longer gate
        // the load.
        index = geometry().parentIndex(l + 1, index);
        critical = critical && !config_.speculativeVerification;
        step = Walk::Step::Probe;
    }
    return std::nullopt; // root registers live on-chip
}

/**
 * Fill a metadata line known to be absent into @p victim, the way a
 * lookup of the line picked, handling a possible dirty victim.
 * Returns the write-back walk that victim needs, if any.
 */
std::optional<SecureMemoryModel::Walk>
SecureMemoryModel::insertMetadata(LineAddr line, bool dirty,
                                  MetadataCache::Way victim,
                                  std::vector<MemAccess> &out)
{
    InsertPosition position = InsertPosition::Mru;
    if (config_.demoteEncCounters) {
        unsigned level;
        std::uint64_t index;
        if (geometry().entryOfLine(line, level, index) && level == 0)
            position = InsertPosition::Lru;
    }
    const Cache::Fill fill = mdcache_.fill(line, dirty, position, victim);
    if (!fill.evicted || !fill.evicted->dirty)
        return std::nullopt;

    unsigned ev_level;
    std::uint64_t ev_index;
    if (geometry().entryOfLine(fill.evicted->line, ev_level, ev_index))
        return handleDirtyWriteback(ev_level, ev_index, out);
    // A dirty separate-mode MAC line: plain write-back.
    out.push_back({fill.evicted->line, AccessType::Write, Traffic::Mac,
                   false});
    stats_.count(Traffic::Mac, true);
    return std::nullopt;
}

/**
 * A dirty metadata entry leaves the chip: write it back. Returns the
 * walk that propagates the write up the tree by incrementing its
 * parent counter (none for the root).
 */
std::optional<SecureMemoryModel::Walk>
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
        return std::nullopt;
    return Walk{.level = level + 1,
                .index = geometry().parentIndex(level + 1, index),
                .critical = false,
                .entryLevel = level + 1,
                .bump = true,
                .child = index};
}

/**
 * Increment the counter at @p level covering @p child (a data line
 * for level 0, else an entry of the level below); the entry, already
 * on-chip, turns dirty; @p way is where its walk left it. On an
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
    MORPH_CHECK_LT(data_line, geometry().dataLines());
    const bool is_write = type == AccessType::Write;

    out.push_back({data_line, type, Traffic::Data, !is_write});
    stats_.count(Traffic::Data, is_write);

    if (!config_.secure)
        return;

    // The encryption counter is needed for both directions: OTP
    // generation on reads (critical), counter bump on writes (posted).
    runWalk(Walk{.level = 0,
                 .index = geometry().parentIndex(0, data_line),
                 .critical = !is_write,
                 .entryLevel = 0,
                 .bump = is_write,
                 .child = data_line},
            out);

    if (!config_.inlineMacs) {
        // Separate-MAC organization: every data access also touches
        // the MAC line (reads verify, writes update).
        const LineAddr mac_line = macLineOf(data_line);
        const Cache::Lookup slot = mdcache_.lookup(mac_line, is_write);
        if (!slot.hit) {
            out.push_back({mac_line, AccessType::Read, Traffic::Mac,
                           !is_write});
            stats_.count(Traffic::Mac, false);
            if (auto writeback =
                    insertMetadata(mac_line, is_write, slot.way, out))
                runWalk(*writeback, out);
        }
    }

    // Retired data write: advances the lazy policy's epoch clock
    // (and may fire a barrier). Last so the barrier covers every
    // metadata mutation this access generated.
    if (persist_ && is_write)
        persist_->onDataWrite();
}

} // namespace morph
