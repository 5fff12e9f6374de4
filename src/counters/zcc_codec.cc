#include "counters/zcc_codec.hh"

#include "common/bitfield.hh"
#include "common/check.hh"

namespace morph
{
namespace zcc
{

// The decode-side accessors (count, rank, minorValue, setMinor …) are
// inline in zcc_codec.hh — they are the per-access hot path. The
// maintenance operations below run once per insert/overflow and stay
// out of line.

void
init(CachelineData &line, std::uint64_t major)
{
    line.fill(0);
    setMajor(line, major);
    writeBits(line, ctrSzOffset, ctrSzBits, sizeForCount(0));
}

void
setMajor(CachelineData &line, std::uint64_t major)
{
    MORPH_CHECK_EQ(major >> majorBits, 0u);
    writeBits(line, majorOffset, majorBits, major);
}

std::uint64_t
largestMinor(const CachelineData &line)
{
    const unsigned k = count(line);
    const unsigned size = ctrSz(line);
    std::uint64_t largest = 0;
    for (unsigned rank = 0; rank < k; ++rank) {
        const std::uint64_t v =
            readBitsNarrow(line, slotOffset(rank, size), size);
        if (v > largest)
            largest = v;
    }
    return largest;
}

namespace
{

constexpr unsigned payloadWord = payloadOffset / 64;
constexpr unsigned payloadWords = payloadBits / 64;
static_assert(payloadOffset % 64 == 0 && payloadBits % 64 == 0,
              "the same-width insert shifts whole payload words");

/** Word @p w of the mask of payload bits [0, end). */
inline std::uint64_t
payloadMaskBelow(unsigned end, unsigned w)
{
    const unsigned lo = 64 * w;
    if (end <= lo)
        return 0;
    if (end >= lo + 64)
        return ~std::uint64_t(0);
    return (std::uint64_t(1) << (end - lo)) - 1;
}

/**
 * Insert a 1 at @p rank among @p k live slots whose width @p size
 * stays: slots below the rank keep their bits, the slots from the rank
 * up move one slot width higher (one 256-bit shift), and every bit
 * above the k + 1 live slots is cleared — the payload the full
 * re-encode writes, bit for bit.
 */
inline void
insertSameWidth(CachelineData &line, unsigned rank, unsigned k,
                unsigned size)
{
    const unsigned at = rank * size;
    const unsigned end = (k + 1) * size;
    std::uint64_t carry = 0;
    for (unsigned w = 0; w < payloadWords; ++w) {
        const std::uint64_t old = loadWord(line, payloadWord + w);
        const std::uint64_t shifted = (old << size) | carry;
        carry = old >> (64 - size);
        const std::uint64_t below = payloadMaskBelow(at, w);
        const std::uint64_t moved =
            payloadMaskBelow(end, w) & ~payloadMaskBelow(at + size, w);
        const std::uint64_t one =
            at / 64 == w ? std::uint64_t(1) << (at % 64) : 0;
        storeWord(line, payloadWord + w,
                  (old & below) | (shifted & moved) | one);
    }
}

/** Set child @p idx's bit-vector bit with a word store: the next
 *  insert loads the bit-vector by words, and a byte store in front of
 *  that load would stall its store forwarding. */
inline void
markNonZero(CachelineData &line, unsigned idx)
{
    const unsigned w = bvWord + idx / 64;
    storeWord(line, w, loadWord(line, w) | std::uint64_t(1) << (idx % 64));
}

} // namespace

bool
insertNonZero(CachelineData &line, unsigned idx)
{
    MORPH_CHECK_CONTEXT(line);
    MORPH_CHECK_LT(idx, numCounters);
    MORPH_CHECK(!isNonZero(line, idx));

    const unsigned k = count(line);
    MORPH_CHECK_LT(k, maxNonZero);
    const unsigned old_size = ctrSz(line);
    const unsigned new_size = sizeForCount(k + 1);
    const unsigned new_rank = rankOf(line, idx);

    // Same width (every insert but the ones crossing a bucket edge):
    // each live value was read at this width, so it still fits.
    if (new_size == old_size) {
        insertSameWidth(line, new_rank, k, new_size);
        markNonZero(line, idx);
        return true;
    }

    const std::uint64_t new_max = (1ull << new_size) - 1;

    // Gather current values in rank order.
    std::uint64_t values[maxNonZero];
    for (unsigned rank = 0; rank < k; ++rank) {
        values[rank] = readBits(line, slotOffset(rank, old_size),
                                old_size);
        if (values[rank] > new_max)
            return false; // does not fit after the shrink -> overflow
    }

    // Splice the new counter (value 1) at its rank position.
    for (unsigned rank = k; rank > new_rank; --rank)
        values[rank] = values[rank - 1];
    values[new_rank] = 1;

    // Re-encode at the new width. Clear the payload first so stale
    // high slots from the wider encoding cannot survive.
    markNonZero(line, idx);
    writeBits(line, ctrSzOffset, ctrSzBits, new_size);
    for (unsigned bit = 0; bit < payloadBits; bit += 64)
        writeBits(line, payloadOffset + bit, 64, 0);
    for (unsigned rank = 0; rank <= k; ++rank)
        writeBits(line, slotOffset(rank, new_size), new_size,
                  values[rank]);
    return true;
}

bool
isWellFormed(const CachelineData &line)
{
    if (!isZcc(line))
        return false;
    const unsigned live = count(line);
    if (live > maxNonZero)
        return false;
    return ctrSz(line) == sizeForCount(live);
}

void
resetAll(CachelineData &line, std::uint64_t new_major)
{
    for (unsigned bit = 0; bit < bvBits; bit += 64)
        writeBits(line, bvOffset + bit, 64, 0);
    for (unsigned bit = 0; bit < payloadBits; bit += 64)
        writeBits(line, payloadOffset + bit, 64, 0);
    writeBits(line, ctrSzOffset, ctrSzBits, sizeForCount(0));
    setBit(line, fOffset, false);
    setMajor(line, new_major);
}

} // namespace zcc
} // namespace morph
