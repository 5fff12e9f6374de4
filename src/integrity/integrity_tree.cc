#include "integrity/integrity_tree.hh"

#include "common/check.hh"
#include "common/prof.hh"

namespace morph
{

IntegrityTree::IntegrityTree(std::uint64_t mem_bytes,
                             const TreeConfig &config,
                             const SipKey &mac_key)
    : state_(mem_bytes, config), macEngine_(mac_key),
      bumpLanes_(macEngine_)
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
    static_assert(CounterFormat::macOffset == 8 * (lineBytes - 8),
                  "the MAC field is the entry's last word");
    const CounterTreeState::Location parent =
        state_.locate(level + 1, index);
    const std::uint64_t parent_counter = state_.format(level + 1).read(
        entryAt(level + 1, parent.index), parent.slot);
    return macEngine_.compute({geometry().lineOfEntry(level, index),
                               parent_counter, &image, 64, true});
}

void
IntegrityTree::resealEntry(unsigned level, std::uint64_t index,
                           CachelineData &image)
{
    if (level == geometry().rootLevel())
        return; // the root is on-chip and needs no MAC
    CounterFormat::setMac(image, entryMac(level, index, image));
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
    BumpResult out = beginBump(data_line);
    finishBump();
    return out;
}

IntegrityTree::BumpResult
IntegrityTree::beginBump(LineAddr data_line)
{
    MORPH_CHECK(!bumping_); // the previous bump was finished
    bumping_ = true;
    BumpResult out;
    // Bump leaf to root: the counter of @p child at each level, the
    // bumped entry itself being the child at the next level up. Each
    // entry is born (MAC included) before it is bumped. Once a level
    // is bumped, the counters of its children are final, so every MAC
    // the bump invalidated there is packed at once.
    const unsigned root = geometry().rootLevel();
    std::uint64_t child = data_line;
    CachelineData *below = nullptr; // the entry bumped one level down
    for (unsigned level = 0;; ++level) {
        const CounterTreeState::Location loc = state_.locate(level, child);
        const CounterTreeState::Bump bump =
            state_.bump(level, loc, entryAt(level, loc.index));
        overflows_[level] += bump.result.overflow;
        if (level == 0) {
            out = leafResult(state_, bump);
            bumpLine_ = data_line;
            bumpCounter_ = out.newCounter;
        } else {
            out.rebases += bump.result.rebase;
            out.treeOverflows += bump.result.overflow;
            const CounterFormat &format = state_.format(level);
            // Every materialized child in the reset range changed its
            // protecting counter; the bumped child is packed below.
            for (std::uint64_t c = bump.childBegin; c < bump.childEnd;
                 ++c) {
                CachelineData *image = state_.find(level - 1, c);
                if (image && c != child)
                    bumpLanes_.seal(
                        geometry().lineOfEntry(level - 1, c),
                        format.read(*bump.image,
                                    geometry().childSlot(level, c)),
                        *image);
            }
            bumpLanes_.seal(geometry().lineOfEntry(level - 1, child),
                            format.read(*bump.image, bump.slot), *below);
        }
        if (level == root)
            return out; // root updates are on-chip register writes
        child = bump.index;
        below = bump.image;
    }
}

void
IntegrityTree::finishBump(DataLane *data)
{
    MORPH_CHECK(bumping_);
    if (data) {
        data->counter = bumpCounter_;
        bumpLanes_.data({bumpLine_, bumpCounter_, data->payload,
                         data->tagBits},
                        data->tag);
    }
    bumpLanes_.finish();
    bumping_ = false;
}

bool
IntegrityTree::verify(LineAddr data_line, DataLane *data)
{
    MORPH_PROF_SCOPE("tree.verify");
    MORPH_CHECK(!bumping_); // no bump is half done
    MacPacker lanes(macEngine_);
    // One lookup per level, leaf to root; each entry found is the
    // parent of the one below.
    std::uint64_t index = state_.locate(0, data_line).index;
    CachelineData *image = &entryAt(0, index);
    if (data) {
        data->counter = state_.format(0).read(
            *image, geometry().childSlot(0, data_line));
        lanes.data({data_line, data->counter, data->payload, data->tagBits},
                   data->tag);
    }
    const unsigned root = geometry().rootLevel();
    for (unsigned level = 0; level < root; ++level) {
        const std::uint64_t parent = geometry().parentIndex(level + 1, index);
        CachelineData *above = &entryAt(level + 1, parent);
        lanes.check(geometry().lineOfEntry(level, index),
                    state_.format(level + 1).read(
                        *above, geometry().childSlot(level + 1, index)),
                    *image);
        index = parent;
        image = above;
    }
    return lanes.finish();
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
