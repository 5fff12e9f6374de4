#include "secmem/secure_memory.hh"

#include <cstring>

#include "common/check.hh"
#include "common/log.hh"
#include "common/prof.hh"

namespace morph
{

namespace
{

/** Start loading the @p size-byte record at @p record for reading
 *  (0) or writing (1): the host cache lines of its first and last
 *  bytes. A line's record is 72 bytes at an 8-byte-aligned address,
 *  so those are all of its lines. */
template <int Write>
void
prefetchRecord(const void *record, std::size_t size)
{
    const auto *bytes = static_cast<const char *>(record);
    __builtin_prefetch(bytes, Write);
    __builtin_prefetch(bytes + size - 1, Write);
}

} // namespace

SecureMemory::SecureMemory(const SecureMemoryConfig &config)
    : config_(config), otp_(config.encryptionKey),
      tree_(config.memBytes, config.tree, config.macKey)
{
    if (config.macBits == 0 || config.macBits > 64)
        fatal("secure memory: MAC width must be 1..64 bits");
    if (config_.freshness == FreshnessScheme::MerkleMacTree)
        merkle_.emplace(geometry().levels()[0].entries, config.macKey);
}

MacTree &
SecureMemory::macTree()
{
    if (!merkle_)
        fatal("secure memory: MacTree requested under the counter-tree "
              "scheme");
    return *merkle_;
}

const CachelineData &
SecureMemory::counterEntryOf(std::uint64_t entry_index)
{
    if (!merkle_)
        return tree_.rawEntry(0, entry_index);
    CounterTreeState &state = tree_.state();
    if (const CachelineData *image = state.find(0, entry_index))
        return *image;
    const CachelineData &image = state.materialize(0, entry_index);
    merkle_->updateLeaf(entry_index, image); // publish the birth state
    return image;
}

std::uint64_t
SecureMemory::counterOf(LineAddr line)
{
    const CounterTreeState &state = tree_.state();
    const CounterTreeState::Location loc = state.locate(0, line);
    return state.format(0).read(counterEntryOf(loc.index), loc.slot);
}

bool
SecureMemory::verifyFreshness(LineAddr line,
                              IntegrityTree::DataLane *data)
{
    if (!merkle_)
        return tree_.verify(line, data);
    const std::uint64_t entry = tree_.state().locate(0, line).index;
    return merkle_->verifyLeaf(entry, counterEntryOf(entry));
}

IntegrityTree::BumpResult
SecureMemory::bumpCounter(LineAddr line)
{
    if (!merkle_)
        return tree_.beginBump(line);
    CounterTreeState &state = tree_.state();
    counterEntryOf(state.locate(0, line).index); // publish a birth first
    const CounterTreeState::Bump bump = state.bump(0, line);
    merkle_->updateLeaf(bump.index, *bump.image);
    return IntegrityTree::leafResult(state, bump);
}

std::uint64_t
SecureMemory::sealWrite(LineAddr line, std::uint64_t counter,
                        const CachelineData &ciphertext)
{
    if (merkle_)
        return dataMac(line, counter, ciphertext);
    IntegrityTree::DataLane data{&ciphertext, config_.macBits};
    tree_.finishBump(&data);
    return data.tag;
}

void
SecureMemory::tamperCounterEntry(std::uint64_t entry_index,
                                 const CachelineData &image)
{
    // Both schemes keep the entry in the tree's state. Neither the
    // entry MAC nor the Merkle tree is updated: the attacker cannot
    // recompute on-chip secrets.
    tree_.injectEntry(0, entry_index, image);
}

void
SecureMemory::auditEncrypt([[maybe_unused]] LineAddr line,
                           [[maybe_unused]] std::uint64_t counter)
{
#ifdef MORPH_AUDIT_PADS
    padAuditor_.recordEncrypt(line, counter);
#endif
}

std::uint64_t
SecureMemory::dataMac(LineAddr line, std::uint64_t counter,
                      const CachelineData &ciphertext) const
{
    return tree_.macEngine().compute(line, counter, ciphertext,
                                     config_.macBits);
}

SecureMemory::StoredLine *
SecureMemory::find(LineAddr line)
{
    Page *page = store_.find(line >> Page::lineLog2);
    const unsigned slot = slotOf(line);
    if (page == nullptr || (page->present >> slot & 1) == 0)
        return nullptr;
    return &page->lines[slot];
}

CachelineData
SecureMemory::zeroLine(LineAddr line, std::uint64_t counter)
{
    CachelineData ciphertext{};
    otp_.xorPad(ciphertext, line, counter);
    return ciphertext;
}

SecureMemory::StoredLine &
SecureMemory::storeFirstImage(LineAddr line, std::uint64_t counter,
                              const StoredLine &record)
{
    Page &page = store_[line >> Page::lineLog2];
    const unsigned slot = slotOf(line);
    auditEncrypt(line, counter);
    page.present |= 1ull << slot;
    return page.lines[slot] = record;
}

SecureMemory::StoredLine &
SecureMemory::materialize(LineAddr line)
{
    if (StoredLine *stored = find(line))
        return *stored;

    // First touch: the line logically holds zeros, encrypted under
    // its current counter (0 for virgin lines; possibly higher if an
    // overflow reset swept this child before its first use).
    const std::uint64_t counter = counterOf(line);
    const CachelineData ciphertext = zeroLine(line, counter);
    return storeFirstImage(line, counter,
                           {ciphertext, dataMac(line, counter, ciphertext)});
}

void
SecureMemory::reencryptSiblings(LineAddr line,
                                const std::vector<LineAddr> &reencrypt,
                                const CachelineData &before)
{
    const CounterTreeState &state = tree_.state();
    MacPacker macs(tree_.macEngine());
    for (const LineAddr child : reencrypt) {
        if (child == line)
            continue; // rewritten by the caller with fresh plaintext
        StoredLine *stored = find(child);
        if (!stored)
            continue; // never materialized; nothing to re-encrypt
        // Decrypt under the old counter, re-encrypt under the new.
        CachelineData &data = stored->ciphertext;
        otp_.xorPad(data, child,
                    state.format(0).read(before,
                                         state.locate(0, child).slot));
        const std::uint64_t fresh = counterOf(child);
        auditEncrypt(child, fresh);
        otp_.xorPad(data, child, fresh);
        macs.data({child, fresh, &data, config_.macBits}, stored->mac);
        ++stats_.reencryptedLines;
    }
    macs.finish();
}

void
SecureMemory::writeLine(LineAddr line, const CachelineData &plaintext)
{
    MORPH_PROF_SCOPE("secmem.write_line");
    MORPH_CHECK_LT(line, geometry().dataLines());
    ++stats_.writes;

    // The line's record is found (its page made) before the counter
    // bump, so that its host lines load while the tree is walked.
    Page &page = store_[line >> Page::lineLog2];
    const unsigned slot = slotOf(line);
    StoredLine &stored = page.lines[slot];
    prefetchRecord<1>(&stored, sizeof(stored));

    // Snapshot the level-0 entry before the bump: if the bump
    // overflows, the controller re-encrypts each sibling from its old
    // counter (decoded from this image) to its new one.
    const CounterTreeState &state = tree_.state();
    const CachelineData before =
        counterEntryOf(state.locate(0, line).index);

    const IntegrityTree::BumpResult bump = bumpCounter(line);
    stats_.treeOverflows += bump.treeOverflows;
    stats_.rebases += bump.rebases;
    if (bump.overflowed) {
        ++stats_.counterOverflows;
        reencryptSiblings(line, bump.reencrypt, before);
    }

    stored.ciphertext = plaintext;
    auditEncrypt(line, bump.newCounter);
    otp_.xorPad(stored.ciphertext, line, bump.newCounter);
    stored.mac = sealWrite(line, bump.newCounter, stored.ciphertext);
    page.present |= 1ull << slot;
}

std::optional<CachelineData>
SecureMemory::readLine(LineAddr line, Verdict &verdict)
{
    MORPH_PROF_SCOPE("secmem.read_line");
    MORPH_CHECK_LT(line, geometry().dataLines());
    ++stats_.reads;

    // Freshness: the counter protecting this line must verify against
    // the tree all the way to the on-chip root. Under the counter tree
    // the line's data MAC is computed in the tree's passes: a stored
    // line's over its ciphertext, and a line never written over its
    // zero line under the counter on its path, which is stored only
    // once that counter verified.
    StoredLine *stored = find(line);
    if (stored)
        prefetchRecord<0>(stored, sizeof(*stored)); // loads during the walk
    std::optional<CachelineData> zero;
    IntegrityTree::DataLane data{nullptr, config_.macBits};
    if (!merkle_) {
        if (!stored)
            zero = zeroLine(line, counterOf(line));
        data.payload = stored ? &stored->ciphertext : &*zero;
    }
    if (!verifyFreshness(line, merkle_ ? nullptr : &data)) {
        verdict = Verdict::TreeMacMismatch;
        ++stats_.integrityFailures;
        return std::nullopt;
    }
    if (merkle_) {
        if (!stored)
            stored = &materialize(line);
        data.counter = counterOf(line);
        data.tag = dataMac(line, data.counter, stored->ciphertext);
    } else if (!stored) {
        stored = &storeFirstImage(line, data.counter, {*zero, data.tag});
    }

    if (!MacEngine::equal(stored->mac, data.tag, config_.macBits)) {
        verdict = Verdict::DataMacMismatch;
        ++stats_.integrityFailures;
        return std::nullopt;
    }

    CachelineData plaintext = stored->ciphertext;
    otp_.xorPad(plaintext, line, data.counter);
    verdict = Verdict::Ok;
    return plaintext;
}

std::optional<CachelineData>
SecureMemory::readLine(LineAddr line)
{
    Verdict verdict;
    return readLine(line, verdict);
}

bool
SecureMemory::writeBytes(Addr addr, const void *src, std::size_t len)
{
    const auto *bytes = static_cast<const std::uint8_t *>(src);
    while (len > 0) {
        const LineAddr line = lineOf(addr);
        const std::size_t offset = addr % lineBytes;
        const std::size_t chunk = std::min(len, lineBytes - offset);

        // A line that fails verification is not rewritten: re-MACing
        // it would silently repair the tampering.
        auto plaintext = readLine(line);
        if (!plaintext)
            return false;
        std::memcpy(plaintext->data() + offset, bytes, chunk);
        writeLine(line, *plaintext);

        addr += chunk;
        bytes += chunk;
        len -= chunk;
    }
    return true;
}

bool
SecureMemory::readBytes(Addr addr, void *dst, std::size_t len)
{
    auto *bytes = static_cast<std::uint8_t *>(dst);
    while (len > 0) {
        const LineAddr line = lineOf(addr);
        const std::size_t offset = addr % lineBytes;
        const std::size_t chunk = std::min(len, lineBytes - offset);

        const auto plaintext = readLine(line);
        if (!plaintext)
            return false;
        std::memcpy(bytes, plaintext->data() + offset, chunk);

        addr += chunk;
        bytes += chunk;
        len -= chunk;
    }
    return true;
}

CachelineData
SecureMemory::ciphertextOf(LineAddr line)
{
    return materialize(line).ciphertext;
}

std::uint64_t
SecureMemory::macOf(LineAddr line)
{
    return materialize(line).mac;
}

void
SecureMemory::tamperCiphertext(LineAddr line, const CachelineData &value)
{
    materialize(line).ciphertext = value;
}

void
SecureMemory::tamperMac(LineAddr line, std::uint64_t value)
{
    materialize(line).mac = value;
}

} // namespace morph
