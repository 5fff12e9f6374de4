/**
 * @file
 * Zero Counter Compression (ZCC) cacheline codec (paper Fig 8).
 *
 * ZCC packs 128 logical counters into one line by storing only the
 * non-zero minor counters: a 128-bit bit-vector marks which children
 * are non-zero and the 256-bit payload is divided evenly among them.
 * With k non-zero counters each gets sizeForCount(k) bits:
 *
 *   k <= 16 -> 16b,  <= 32 -> 8b,  <= 36 -> 7b,
 *   k <= 42 ->  6b,  <= 51 -> 5b,  <= 64 -> 4b.
 *
 * Layout (bit offsets; bit 0 = LSB of byte 0):
 *
 *   [0,1)    F format flag (0 = ZCC)
 *   [1,7)    Ctr-Sz: current per-counter width
 *   [7,64)   major counter (57 bits; effective values use <= 56)
 *   [64,192) non-zero bit-vector (128 bits)
 *   [192,448) packed non-zero counters, rank order
 *   [448,512) MAC
 *
 * Deviation from Fig 8: the paper draws the format field after the
 * major counter; we place the F bit at a fixed position (bit 0) shared
 * with the MCR layout so a decoder can dispatch on it before parsing.
 * Field widths and semantics are unchanged.
 */

#ifndef MORPH_COUNTERS_ZCC_CODEC_HH
#define MORPH_COUNTERS_ZCC_CODEC_HH

#include <array>
#include <bit>
#include <cstdint>

#include "common/bitfield.hh"
#include "common/check.hh"
#include "common/types.hh"

namespace morph
{
namespace zcc
{

constexpr unsigned numCounters = 128;
constexpr unsigned maxNonZero = 64;

constexpr unsigned fOffset = 0;
constexpr unsigned ctrSzOffset = 1;
constexpr unsigned ctrSzBits = 6;
constexpr unsigned majorOffset = 7;
constexpr unsigned majorBits = 57;
constexpr unsigned bvOffset = 64;
constexpr unsigned bvBits = 128;
constexpr unsigned payloadOffset = 192;
constexpr unsigned payloadBits = 256;

// The bit-vector occupies bits [64, 192): exactly words 1 and 2 of
// the line's 64-bit word view (common/bitfield.hh). The decode hot
// path below loads those two words once and answers membership, rank
// and count questions with masks and hardware popcount — no per-rank
// loops anywhere. The accessors are defined inline here because they
// sit under every counter read the simulator performs; call overhead
// was the dominant cost (docs/PERFORMANCE.md).
static_assert(bvOffset == 64 && bvBits == 128,
              "word-level ZCC decode assumes the bit-vector fills "
              "words 1 and 2 exactly");
constexpr unsigned bvWord = bvOffset / 64;

/**
 * §III width schedule as a direct lookup: widthForCount[k] is the
 * per-counter width when k counters are live. The bucket boundaries
 * are cross-checked by Zcc.SizeForCountTable and the morphverify
 * ZCC-schedule invariant.
 */
inline constexpr std::array<std::uint8_t, maxNonZero + 1>
    widthForCount = [] {
        std::array<std::uint8_t, maxNonZero + 1> t{};
        for (unsigned k = 0; k <= maxNonZero; ++k) {
            t[k] = k <= 16   ? 16
                   : k <= 32 ? 8
                   : k <= 36 ? 7
                   : k <= 42 ? 6
                   : k <= 51 ? 5
                             : 4;
        }
        return t;
    }();

/** Per-counter width (bits) when @p k counters are non-zero (k<=64). */
inline unsigned
sizeForCount(unsigned k)
{
    MORPH_CHECK_LE(k, maxNonZero);
    return widthForCount[k];
}

/**
 * Rank of @p idx given the two bit-vector words: set bits strictly
 * below idx. Branch-free: `ext` is all-ones exactly when idx >= 64, so
 * the low word saturates to full population and the high word is
 * masked by the intra-word prefix (and vice versa below 64).
 */
inline unsigned
bvRank(std::uint64_t lo, std::uint64_t hi, unsigned idx)
{
    const std::uint64_t prefix = (std::uint64_t(1) << (idx & 63)) - 1;
    const std::uint64_t ext = std::uint64_t(0) - std::uint64_t(idx >> 6);
    return unsigned(std::popcount(lo & (prefix | ext)) +
                    std::popcount(hi & (prefix & ext)));
}

/** True if the line's format flag selects ZCC. */
inline bool
isZcc(const CachelineData &line)
{
    return !testBit(line, fOffset);
}

/** Read the 57-bit major counter. */
inline std::uint64_t
majorOf(const CachelineData &line)
{
    return readBits(line, majorOffset, majorBits);
}

/** Write the 57-bit major counter. */
void setMajor(CachelineData &line, std::uint64_t major);

/** Initialize to the all-zero ZCC state (major = given value). */
void init(CachelineData &line, std::uint64_t major = 0);

/** Stored Ctr-Sz field. */
inline unsigned
ctrSz(const CachelineData &line)
{
    return unsigned(readBits(line, ctrSzOffset, ctrSzBits));
}

/** Number of non-zero counters (bit-vector popcount). */
inline unsigned
count(const CachelineData &line)
{
    return unsigned(std::popcount(loadWord(line, bvWord)) +
                    std::popcount(loadWord(line, bvWord + 1)));
}

/** True if child @p idx has a non-zero minor. */
inline bool
isNonZero(const CachelineData &line, unsigned idx)
{
    MORPH_CHECK_LT(idx, numCounters);
    return (loadWord(line, bvWord + (idx >> 6)) >> (idx & 63)) & 1;
}

/** Rank of child @p idx: number of set bits strictly below it. */
inline unsigned
rankOf(const CachelineData &line, unsigned idx)
{
    return bvRank(loadWord(line, bvWord), loadWord(line, bvWord + 1),
                  idx);
}

/** Bit offset of the rank-th packed counter at width @p size. */
inline unsigned
slotOffset(unsigned rank, unsigned size)
{
    return payloadOffset + rank * size;
}

/** Minor counter of child @p idx (0 when its bit is clear). */
inline std::uint64_t
minorValue(const CachelineData &line, unsigned idx)
{
    MORPH_CHECK_LT(idx, numCounters);
    // One pass over the two bit-vector words answers both the
    // membership test and the rank; ctrSz and the slot read touch at
    // most three more words.
    const std::uint64_t lo = loadWord(line, bvWord);
    const std::uint64_t hi = loadWord(line, bvWord + 1);
    const std::uint64_t word = (idx >> 6) ? hi : lo;
    const std::uint64_t present = (word >> (idx & 63)) & 1;
    const unsigned rank = bvRank(lo, hi, idx);
    const unsigned size = ctrSz(line);
    // Branchless: always read the rank-th slot and mask by membership.
    // Safe even when the bit is clear — rank <= count and every width
    // bucket keeps count * size <= payloadBits, so the speculative read
    // ends at bit slotOffset(count, size) + size <= 448 + 16 < 512
    // (and the 32-bit narrow-read window ends at byte 60 < 64).
    const std::uint64_t raw =
        readBitsNarrow(line, slotOffset(rank, size), size);
    return raw & (std::uint64_t(0) - present);
}

/**
 * Decode every minor counter of the line into @p out (zeros for clear
 * bits). Walks the bit-vector with countr_zero and reads the packed
 * slots sequentially, so a full-line decode is one pass over the set
 * bits instead of numCounters independent rank computations — this is
 * the unit of work verification and re-encoding perform.
 */
inline void
decodeAll(const CachelineData &line, std::uint64_t (&out)[numCounters])
{
    for (unsigned i = 0; i < numCounters; ++i)
        out[i] = 0;
    const unsigned size = ctrSz(line);
    unsigned offset = payloadOffset;
    for (unsigned w = 0; w < bvBits / 64; ++w) {
        std::uint64_t bv = loadWord(line, bvWord + w);
        while (bv) {
            const unsigned idx =
                64 * w + unsigned(std::countr_zero(bv));
            out[idx] = readBitsNarrow(line, offset, size);
            offset += size;
            bv &= bv - 1;
        }
    }
}

/** Largest minor counter in the line (0 if none set). */
std::uint64_t largestMinor(const CachelineData &line);

/**
 * Overwrite the minor of an already-non-zero child. @p value must be
 * non-zero and fit in the current counter size.
 */
inline void
setMinor(CachelineData &line, unsigned idx, std::uint64_t value)
{
    // Debug-only hex-dump registration: this is the per-increment hot
    // path and the RAII context costs two TLS list updates per call.
    // The value/membership checks below stay on in release.
    // Hot-path preconditions are debug-grade here, matching the
    // bitfield primitives themselves: setMinor sits under every
    // counter increment and the membership/value-fit loads+branches
    // are measurable. Maintenance ops (insertNonZero, setMajor) keep
    // their always-on checks.
    MORPH_DCHECK_CONTEXT(line);
    MORPH_DCHECK(isNonZero(line, idx));
    const unsigned size = ctrSz(line);
    MORPH_DCHECK(value != 0 && (size == 64 || (value >> size) == 0));
    // The aligned word RMW beats the unaligned 32-bit window for
    // writes: successive slot writes partially overlap in the byte
    // view, and the word view keeps store-to-load forwarding exact.
    writeBits(line, slotOffset(rankOf(line, idx), size), size, value);
}

/**
 * Make child @p idx non-zero with value 1, re-packing counters to the
 * (possibly smaller) width for the new population. When the stored
 * Ctr-Sz already is that width, the slots from the new rank up shift
 * one slot higher in place; only a width change re-encodes every slot.
 * Either way the payload above the live slots ends up zero.
 *
 * @retval false if some existing counter does not fit the new width —
 *         the line is left unmodified and the caller must reset
 * @pre  child @p idx is currently zero and count() < 64
 */
bool insertNonZero(CachelineData &line, unsigned idx);

/**
 * Overflow reset: clear the bit-vector and all minors, set the major
 * counter to @p new_major (callers pass max-effective-value + 1 to
 * guarantee counter-value monotonicity).
 */
void resetAll(CachelineData &line, std::uint64_t new_major);

/**
 * Structural validity of a (possibly attacker-supplied) ZCC image:
 * the format flag selects ZCC, at most 64 counters are live, and the
 * stored Ctr-Sz matches the live population. Decoders must gate on
 * this (after MAC verification) before interpreting fields — a forged
 * Ctr-Sz would otherwise index past the payload.
 */
bool isWellFormed(const CachelineData &line);

} // namespace zcc
} // namespace morph

#endif // MORPH_COUNTERS_ZCC_CODEC_HH
