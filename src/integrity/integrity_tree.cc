#include "integrity/integrity_tree.hh"


#include "common/check.hh"
#include "common/log.hh"
#include "common/prof.hh"

namespace morph
{

IntegrityTree::IntegrityTree(std::uint64_t mem_bytes,
                             const TreeConfig &config,
                             const SipKey &mac_key)
    : geom_(mem_bytes, config), macEngine_(mac_key)
{
    const auto &levels = geom_.levels();
    formats_.reserve(levels.size());
    store_.resize(levels.size());
    overflows_.assign(levels.size(), 0);
    for (const auto &info : levels)
        formats_.push_back(makeCounterFormat(info.kind));
}

IntegrityTree::~IntegrityTree() = default;

CachelineData &
IntegrityTree::getEntry(unsigned level, std::uint64_t index)
{
    MORPH_CHECK_LT(level, store_.size());
    MORPH_CHECK_LT(index, geom_.levels()[level].entries);

    if (CachelineData *image = store_[level].find(index))
        return *image;

    // Materialize a fresh all-zero entry. Its MAC must be consistent
    // from birth so verification of untouched regions succeeds.
    CachelineData image;
    formats_[level]->init(image);
    if (level != geom_.rootLevel())
        CounterFormat::setMac(image, entryMac(level, index, image));
    return store_[level][index] = image;
}

std::uint64_t
IntegrityTree::parentCounter(unsigned level, std::uint64_t index)
{
    const unsigned parent_level = level + 1;
    MORPH_CHECK_LE(parent_level, geom_.rootLevel());
    const std::uint64_t pidx = geom_.parentIndex(parent_level, index);
    const unsigned slot = geom_.childSlot(parent_level, index);
    return formats_[parent_level]->read(getEntry(parent_level, pidx),
                                        slot);
}

std::uint64_t
IntegrityTree::entryMac(unsigned level, std::uint64_t index,
                        const CachelineData &image)
{
    // MAC covers the entry contents (MAC field zeroed), bound to the
    // entry's physical line address and its parent counter.
    CachelineData payload = image;
    CounterFormat::setMac(payload, 0);
    return macEngine_.compute(geom_.lineOfEntry(level, index),
                              parentCounter(level, index), payload);
}

void
IntegrityTree::recomputeMac(unsigned level, std::uint64_t index)
{
    if (level == geom_.rootLevel())
        return; // the root is on-chip and needs no MAC
    CachelineData &image = getEntry(level, index);
    CounterFormat::setMac(image, entryMac(level, index, image));
}

void
IntegrityTree::propagateMutation(unsigned level, std::uint64_t index,
                                 BumpResult &out)
{
    if (level == geom_.rootLevel()) {
        return; // root updates are on-chip register writes
    }

    // Recursion nests one tree.propagate per level climbed.
    MORPH_PROF_SCOPE("tree.propagate");

    const unsigned parent_level = level + 1;
    const std::uint64_t pidx = geom_.parentIndex(parent_level, index);
    const unsigned slot = geom_.childSlot(parent_level, index);

    CachelineData &parent = getEntry(parent_level, pidx);
    const WriteResult res = formats_[parent_level]->increment(parent,
                                                              slot);
    if (res.rebase)
        ++out.rebases;
    if (res.overflow) {
        ++overflows_[parent_level];
        ++out.treeOverflows;
        // Every child in the reset range changed its protecting
        // counter; re-hash the materialized ones (this entry's own
        // MAC is recomputed below in any case).
        const std::uint64_t base = pidx * geom_.levels()[parent_level]
                                              .arity;
        for (unsigned c = res.reencBegin; c < res.reencEnd; ++c) {
            const std::uint64_t child = base + c;
            if (child == index || child >= geom_.levels()[level].entries)
                continue;
            if (store_[level].contains(child))
                recomputeMac(level, child);
        }
    }

    // The parent entry changed: continue up before finalizing our MAC
    // (order is immaterial — counters at parent_level are final once
    // increment() returns — but doing it here keeps the invariant
    // "every stored MAC is consistent when the call stack unwinds").
    propagateMutation(parent_level, pidx, out);
    recomputeMac(level, index);
}

std::uint64_t
IntegrityTree::counterOf(LineAddr data_line)
{
    MORPH_CHECK_LT(data_line, geom_.dataLines());
    const std::uint64_t idx = geom_.parentIndex(0, data_line);
    const unsigned slot = geom_.childSlot(0, data_line);
    return formats_[0]->read(getEntry(0, idx), slot);
}

IntegrityTree::BumpResult
IntegrityTree::bumpCounter(LineAddr data_line)
{
    MORPH_PROF_SCOPE("tree.bump");
    MORPH_CHECK_LT(data_line, geom_.dataLines());
    const std::uint64_t idx = geom_.parentIndex(0, data_line);
    const unsigned slot = geom_.childSlot(0, data_line);

    BumpResult out;
    CachelineData &entry = getEntry(0, idx);
    const WriteResult res = formats_[0]->increment(entry, slot);
    if (res.rebase)
        ++out.rebases;
    if (res.overflow) {
        ++overflows_[0];
        out.overflowed = true;
        const std::uint64_t base = idx * geom_.levels()[0].arity;
        for (unsigned c = res.reencBegin; c < res.reencEnd; ++c) {
            const LineAddr child = base + c;
            if (child < geom_.dataLines())
                out.reencrypt.push_back(child);
        }
    }

    propagateMutation(0, idx, out);
    // `entry` is still valid: a store reference survives any later
    // insertion. Propagation rewrites only its MAC field, so this reads
    // the counter increment() set.
    out.newCounter = formats_[0]->read(entry, slot);
    return out;
}

bool
IntegrityTree::verify(LineAddr data_line)
{
    MORPH_PROF_SCOPE("tree.verify");
    MORPH_CHECK_LT(data_line, geom_.dataLines());
    std::uint64_t index = geom_.parentIndex(0, data_line);
    for (unsigned level = 0; level < geom_.rootLevel(); ++level) {
        const CachelineData &image = getEntry(level, index);
        const std::uint64_t stored = CounterFormat::mac(image);
        if (!MacEngine::equal(stored, entryMac(level, index, image)))
            return false;
        index = geom_.parentIndex(level + 1, index);
    }
    return true;
}

bool
IntegrityTree::verifyAll()
{
    for (unsigned level = 0; level < geom_.rootLevel(); ++level) {
        for (const auto &e : store_[level]) {
            const std::uint64_t stored = CounterFormat::mac(e.value);
            if (!MacEngine::equal(stored,
                                  entryMac(level, e.key, e.value)))
                return false;
        }
    }
    return true;
}

const CachelineData &
IntegrityTree::rawEntry(unsigned level, std::uint64_t index)
{
    return getEntry(level, index);
}

void
IntegrityTree::injectEntry(unsigned level, std::uint64_t index,
                           const CachelineData &image)
{
    MORPH_CHECK_LT(level, store_.size());
    store_[level][index] = image;
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
    MORPH_CHECK_LT(level, store_.size());
    return store_[level].size();
}

} // namespace morph
