#include "integrity/integrity_tree.hh"

#include "common/check.hh"
#include "common/prof.hh"

namespace morph
{

IntegrityTree::IntegrityTree(std::uint64_t mem_bytes,
                             const TreeConfig &config,
                             const SipKey &mac_key)
    : state_(mem_bytes, config), macEngine_(mac_key)
{
    overflows_.assign(geometry().levels().size(), 0);
}

IntegrityTree::~IntegrityTree() = default;

CachelineData &
IntegrityTree::entryAt(unsigned level, std::uint64_t index)
{
    if (CachelineData *image = state_.find(level, index))
        return *image;

    // Materialize a fresh all-zero entry. Its MAC must be consistent
    // from birth so verification of untouched regions succeeds.
    CachelineData &image = state_.materialize(level, index);
    resealEntry(level, index, image);
    return image;
}

std::uint64_t
IntegrityTree::entryMac(unsigned level, std::uint64_t index,
                        const CachelineData &image)
{
    // MAC covers the entry contents (MAC field zeroed), bound to the
    // entry's physical line address and its parent counter.
    const CounterTreeState::Location parent =
        state_.locate(level + 1, index);
    const std::uint64_t parent_counter = state_.format(level + 1).read(
        entryAt(level + 1, parent.index), parent.slot);
    CachelineData payload = image;
    CounterFormat::setMac(payload, 0);
    return macEngine_.compute(geometry().lineOfEntry(level, index),
                              parent_counter, payload);
}

void
IntegrityTree::resealEntry(unsigned level, std::uint64_t index,
                           CachelineData &image)
{
    if (level == geometry().rootLevel())
        return; // the root is on-chip and needs no MAC
    CounterFormat::setMac(image, entryMac(level, index, image));
}

/**
 * Bump the counter of @p child at @p level (a data line at level 0,
 * else an entry of the level below) and propagate to the root: the
 * bumped entry's parent counter is bumped in turn, and every MAC the
 * change invalidates is recomputed.
 */
void
IntegrityTree::bumpAt(unsigned level, std::uint64_t child,
                      BumpResult &out)
{
    // Birth the entry, MAC included, before bumping it.
    const CounterTreeState::Bump bump = state_.bump(
        level, child, entryAt(level, state_.locate(level, child).index));
    overflows_[level] += bump.result.overflow;
    if (level == 0) {
        // Propagation rewrites only MAC fields: these counters are
        // final.
        out = leafResult(state_, bump);
    } else {
        out.rebases += bump.result.rebase;
        out.treeOverflows += bump.result.overflow;
        // Every child in the reset range changed its protecting
        // counter; re-hash the materialized ones (@p child itself is
        // re-hashed by the caller in any case).
        for (std::uint64_t c = bump.childBegin; c < bump.childEnd; ++c) {
            CachelineData *image = state_.find(level - 1, c);
            if (image && c != child)
                resealEntry(level - 1, c, *image);
        }
    }
    if (level == geometry().rootLevel())
        return; // root updates are on-chip register writes

    // Recursion nests one tree.propagate per level climbed. Going up
    // before finalizing this entry's MAC keeps the invariant "every
    // stored MAC is consistent when the call stack unwinds".
    MORPH_PROF_SCOPE("tree.propagate");
    bumpAt(level + 1, bump.index, out);
    resealEntry(level, bump.index, *bump.image);
}

IntegrityTree::BumpResult
IntegrityTree::leafResult(const CounterTreeState &state,
                          const CounterTreeState::Bump &bump)
{
    BumpResult out;
    out.newCounter = state.format(0).read(*bump.image, bump.slot);
    out.overflowed = bump.result.overflow;
    out.rebases = bump.result.rebase ? 1 : 0;
    for (LineAddr child = bump.childBegin; child < bump.childEnd; ++child)
        out.reencrypt.push_back(child);
    return out;
}

std::uint64_t
IntegrityTree::counterOf(LineAddr data_line)
{
    const CounterTreeState::Location loc = state_.locate(0, data_line);
    return state_.format(0).read(entryAt(0, loc.index), loc.slot);
}

IntegrityTree::BumpResult
IntegrityTree::bumpCounter(LineAddr data_line)
{
    MORPH_PROF_SCOPE("tree.bump");
    BumpResult out;
    bumpAt(0, data_line, out);
    return out;
}

bool
IntegrityTree::verify(LineAddr data_line)
{
    MORPH_PROF_SCOPE("tree.verify");
    std::uint64_t index = state_.locate(0, data_line).index;
    for (unsigned level = 0; level < geometry().rootLevel(); ++level) {
        const CachelineData &image = entryAt(level, index);
        const std::uint64_t stored = CounterFormat::mac(image);
        if (!MacEngine::equal(stored, entryMac(level, index, image)))
            return false;
        index = geometry().parentIndex(level + 1, index);
    }
    return true;
}

bool
IntegrityTree::verifyAll()
{
    for (unsigned level = 0; level < geometry().rootLevel(); ++level) {
        for (const auto &e : state_.images(level)) {
            const std::uint64_t stored = CounterFormat::mac(e.value);
            if (!MacEngine::equal(stored,
                                  entryMac(level, e.key, e.value)))
                return false;
        }
    }
    return true;
}

void
IntegrityTree::injectEntry(unsigned level, std::uint64_t index,
                           const CachelineData &image)
{
    state_.entry(level, index) = image;
}

std::uint64_t
IntegrityTree::overflowEvents(unsigned level) const
{
    MORPH_CHECK_LT(level, overflows_.size());
    return overflows_[level];
}

std::uint64_t
IntegrityTree::materializedEntries(unsigned level) const
{
    return state_.images(level).size();
}

} // namespace morph
