#include "integrity/mac_tree.hh"

#include <cstring>

#include "common/check.hh"

#include "common/log.hh"

namespace morph
{

MacTree::MacTree(std::uint64_t leaves, const SipKey &mac_key)
    : leaves_(leaves), macEngine_(mac_key)
{
    if (leaves == 0)
        fatal("mac tree: need at least one leaf");

    std::uint64_t width = leaves;
    unsigned level = 1;
    while (true) {
        width = (width + arity - 1) / arity;
        levels_.push_back({level, width, width * lineBytes});
        if (width <= 1)
            break;
        ++level;
        if (level > 32)
            panic("mac tree: runaway level recursion");
    }
    store_.resize(levels_.size());
}

std::uint64_t
MacTree::treeBytes() const
{
    std::uint64_t total = 0;
    for (const auto &info : levels_)
        total += info.bytes;
    return total;
}

const CachelineData &
MacTree::node(unsigned level, std::uint64_t index) const
{
    MORPH_CHECK(level >= 1 && level <= levels_.size());
    static const CachelineData zero{};
    const CachelineData *image = store_[level - 1].find(index);
    return image ? *image : zero;
}

CachelineData &
MacTree::nodeMutable(unsigned level, std::uint64_t index)
{
    MORPH_CHECK(level >= 1 && level <= levels_.size());
    MORPH_CHECK_LT(index, levels_[level - 1].nodes);
    return store_[level - 1][index];
}

std::uint64_t
MacTree::hashOf(unsigned level, std::uint64_t index,
                const CachelineData &image) const
{
    // Domain-separate levels so a node cannot masquerade as a leaf.
    const LineAddr binding =
        (LineAddr(level) << 56) | LineAddr(index);
    return macEngine_.compute(binding, 0, image);
}

std::uint64_t
MacTree::slotOf(const CachelineData &image, unsigned slot)
{
    MORPH_CHECK_LT(slot, arity);
    std::uint64_t value;
    std::memcpy(&value, image.data() + slot * 8, 8);
    return value;
}

void
MacTree::setSlot(CachelineData &image, unsigned slot,
                 std::uint64_t value)
{
    MORPH_CHECK_LT(slot, arity);
    std::memcpy(image.data() + slot * 8, &value, 8);
}

void
MacTree::updateLeaf(std::uint64_t index, const CachelineData &image)
{
    MORPH_CHECK_LT(index, leaves_);

    // Install the leaf hash, then re-hash ancestors up to the root.
    std::uint64_t child_hash = hashOf(0, index, image);
    std::uint64_t child_index = index;
    for (unsigned level = 1; level <= levels_.size(); ++level) {
        CachelineData &parent =
            nodeMutable(level, child_index / arity);
        setSlot(parent, unsigned(child_index % arity), child_hash);
        child_index /= arity;
        child_hash = hashOf(level, child_index, parent);
    }
    rootMac_ = child_hash; // hash of the single top node, on-chip
}

bool
MacTree::verifyLeaf(std::uint64_t index,
                    const CachelineData &image) const
{
    MORPH_CHECK_LT(index, leaves_);

    std::uint64_t expected = hashOf(0, index, image);
    std::uint64_t child_index = index;
    for (unsigned level = 1; level <= levels_.size(); ++level) {
        const CachelineData &parent =
            node(level, child_index / arity);
        if (!MacEngine::equal(slotOf(parent,
                                     unsigned(child_index % arity)),
                              expected))
            return false;
        child_index /= arity;
        expected = hashOf(level, child_index, parent);
    }
    return MacEngine::equal(expected, rootMac_);
}

bool
MacTree::verifyAll() const
{
    for (unsigned level = 1; level < levels_.size(); ++level) {
        for (const auto &e : store_[level - 1]) {
            const CachelineData &parent = node(level + 1, e.key / arity);
            if (!MacEngine::equal(slotOf(parent, unsigned(e.key % arity)),
                                  hashOf(level, e.key, e.value)))
                return false;
        }
    }
    // The single top node anchors to the on-chip root MAC.
    const unsigned top = unsigned(levels_.size());
    for (const auto &e : store_[top - 1]) {
        if (!MacEngine::equal(hashOf(top, e.key, e.value), rootMac_))
            return false;
    }
    return true;
}

CachelineData
MacTree::nodeImage(unsigned level, std::uint64_t index) const
{
    return node(level, index);
}

void
MacTree::injectNode(unsigned level, std::uint64_t index,
                    const CachelineData &image)
{
    nodeMutable(level, index) = image;
}

} // namespace morph
