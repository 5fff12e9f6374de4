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

MacMessage
IntegrityTree::entryMessage(unsigned level, std::uint64_t index,
                            const CachelineData &image,
                            std::uint64_t parent_counter) const
{
    // MAC covers the entry contents (MAC field zeroed), bound to the
    // entry's physical line address and its parent counter.
    static_assert(CounterFormat::macOffset == 8 * (lineBytes - 8),
                  "the MAC field is the entry's last word");
    return {geometry().lineOfEntry(level, index), parent_counter, &image,
            64, true};
}

std::uint64_t
IntegrityTree::entryMac(unsigned level, std::uint64_t index,
                        const CachelineData &image)
{
    const CounterTreeState::Location parent =
        state_.locate(level + 1, index);
    const std::uint64_t parent_counter = state_.format(level + 1).read(
        entryAt(level + 1, parent.index), parent.slot);
    return macEngine_.compute(
        entryMessage(level, index, image, parent_counter));
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
    MORPH_CHECK(lanes_.empty()); // the previous bump was finished
    BumpResult out;
    // Bump leaf to root: the counter of @p child at each level, the
    // bumped entry itself being the child at the next level up. Each
    // entry is born (MAC included) before it is bumped. Every MAC the
    // bumps invalidate is queued as a lane whose parent counter is read
    // once the whole path is final.
    std::uint64_t child = data_line;
    CachelineData *below = nullptr; // the entry bumped one level down
    for (unsigned level = 0;; ++level) {
        const CounterTreeState::Bump bump = state_.bump(
            level, child,
            entryAt(level, state_.locate(level, child).index));
        overflows_[level] += bump.result.overflow;
        if (level == 0) {
            out = leafResult(state_, bump);
            dataMsg_ = {data_line, out.newCounter, nullptr, 64};
        } else {
            out.rebases += bump.result.rebase;
            out.treeOverflows += bump.result.overflow;
            // Every materialized child in the reset range changed its
            // protecting counter; the bumped child is queued below.
            for (std::uint64_t c = bump.childBegin; c < bump.childEnd;
                 ++c) {
                CachelineData *image = state_.find(level - 1, c);
                if (image && c != child)
                    lanes_.push_back({level - 1, c, image, bump.image,
                                      geometry().childSlot(level, c)});
            }
            lanes_.push_back(
                {level - 1, child, below, bump.image, bump.slot});
        }
        if (level == geometry().rootLevel())
            return out; // root updates are on-chip register writes
        child = bump.index;
        below = bump.image;
    }
}

void
IntegrityTree::finishBump(DataLane *data)
{
    runLanes(data);
    for (std::size_t i = 0; i < lanes_.size(); ++i)
        CounterFormat::setMac(*lanes_[i].image, tags_[i]);
    lanes_.clear();
}

bool
IntegrityTree::verify(LineAddr data_line, DataLane *data)
{
    MORPH_PROF_SCOPE("tree.verify");
    MORPH_CHECK(lanes_.empty()); // no bump is half done
    // One lookup per level, leaf to root; each entry found is the
    // parent of the one below.
    std::uint64_t index = state_.locate(0, data_line).index;
    CachelineData *image = &entryAt(0, index);
    if (data)
        dataMsg_ = {data_line,
                    state_.format(0).read(
                        *image, geometry().childSlot(0, data_line)),
                    nullptr, 64};
    for (unsigned level = 0; level < geometry().rootLevel(); ++level) {
        const std::uint64_t parent = geometry().parentIndex(level + 1, index);
        CachelineData *above = &entryAt(level + 1, parent);
        lanes_.push_back({level, index, image, above,
                          geometry().childSlot(level + 1, index)});
        index = parent;
        image = above;
    }
    runLanes(data);

    bool ok = true;
    for (std::size_t i = 0; i < lanes_.size() && ok; ++i)
        ok = MacEngine::equal(CounterFormat::mac(*lanes_[i].image),
                              tags_[i]);
    lanes_.clear();
    return ok;
}

void
IntegrityTree::runLanes(DataLane *data)
{
    const std::size_t entries = lanes_.size();
    msgs_.resize(entries + (data ? 1 : 0));
    for (std::size_t i = 0; i < entries; ++i) {
        const EntryLane &lane = lanes_[i];
        msgs_[i] = entryMessage(
            lane.level, lane.index, *lane.image,
            state_.format(lane.level + 1).read(*lane.parent, lane.slot));
    }
    if (data) {
        data->counter = dataMsg_.counter;
        msgs_[entries] = {dataMsg_.line, dataMsg_.counter, data->payload,
                          data->tagBits};
    }
    tags_.resize(msgs_.size());
    macEngine_.computeBatch(msgs_.data(), msgs_.size(), tags_.data());
    if (data)
        data->tag = tags_[entries];
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
