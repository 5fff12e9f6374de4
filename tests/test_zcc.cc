/**
 * @file
 * Unit tests for the Zero Counter Compression codec.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/bitfield.hh"
#include "common/rng.hh"
#include "counters/zcc_codec.hh"

namespace morph
{
namespace
{

TEST(Zcc, SizeForCountTable)
{
    // The paper's width schedule (Fig 8 discussion): every population
    // up to a bound gets the width beside it.
    const unsigned buckets[][2] = {{16, 16}, {32, 8}, {36, 7},
                                   {42, 6},  {51, 5}, {64, 4}};
    unsigned k = 0;
    for (const auto &[bound, width] : buckets)
        for (; k <= bound; ++k)
            EXPECT_EQ(zcc::sizeForCount(k), width) << k;
}

TEST(Zcc, WidthsAlwaysFitPayload)
{
    for (unsigned k = 1; k <= zcc::maxNonZero; ++k) {
        EXPECT_LE(k * zcc::sizeForCount(k), 256u) << k;
        // Utility-maximal: at a bucket's last population, one more
        // counter of the same width would not fit the payload.
        if (k == zcc::maxNonZero ||
            zcc::sizeForCount(k + 1) != zcc::sizeForCount(k)) {
            EXPECT_GT((k + 1) * zcc::sizeForCount(k), 256u) << k;
        }
    }
}

TEST(Zcc, InitState)
{
    CachelineData line;
    zcc::init(line, 77);
    EXPECT_TRUE(zcc::isZcc(line));
    EXPECT_EQ(zcc::majorOf(line), 77u);
    EXPECT_EQ(zcc::count(line), 0u);
    EXPECT_EQ(zcc::ctrSz(line), 16u);
    for (unsigned i = 0; i < zcc::numCounters; ++i)
        EXPECT_EQ(zcc::minorValue(line, i), 0u);
}

TEST(Zcc, InsertAndRead)
{
    CachelineData line;
    zcc::init(line, 0);
    ASSERT_TRUE(zcc::insertNonZero(line, 5));
    EXPECT_EQ(zcc::count(line), 1u);
    EXPECT_TRUE(zcc::isNonZero(line, 5));
    EXPECT_EQ(zcc::minorValue(line, 5), 1u);
    EXPECT_EQ(zcc::minorValue(line, 4), 0u);
}

TEST(Zcc, SetMinorUpdatesValue)
{
    CachelineData line;
    zcc::init(line, 0);
    ASSERT_TRUE(zcc::insertNonZero(line, 5));
    zcc::setMinor(line, 5, 12345);
    EXPECT_EQ(zcc::minorValue(line, 5), 12345u);
}

TEST(Zcc, RankOrderSurvivesOutOfOrderInsertion)
{
    CachelineData line;
    zcc::init(line, 0);
    ASSERT_TRUE(zcc::insertNonZero(line, 50));
    zcc::setMinor(line, 50, 500);
    ASSERT_TRUE(zcc::insertNonZero(line, 10));
    zcc::setMinor(line, 10, 100);
    ASSERT_TRUE(zcc::insertNonZero(line, 30));
    zcc::setMinor(line, 30, 300);

    EXPECT_EQ(zcc::minorValue(line, 10), 100u);
    EXPECT_EQ(zcc::minorValue(line, 30), 300u);
    EXPECT_EQ(zcc::minorValue(line, 50), 500u);
    EXPECT_EQ(zcc::largestMinor(line), 500u);
}

TEST(Zcc, ShrinkOnSeventeenthCounterPreservesValues)
{
    CachelineData line;
    zcc::init(line, 0);
    for (unsigned i = 0; i < 16; ++i) {
        ASSERT_TRUE(zcc::insertNonZero(line, i));
        zcc::setMinor(line, i, 200 + i); // fits 8 bits after shrink
    }
    EXPECT_EQ(zcc::ctrSz(line), 16u);
    ASSERT_TRUE(zcc::insertNonZero(line, 100));
    EXPECT_EQ(zcc::ctrSz(line), 8u);
    EXPECT_EQ(zcc::count(line), 17u);
    for (unsigned i = 0; i < 16; ++i)
        EXPECT_EQ(zcc::minorValue(line, i), 200u + i) << i;
    EXPECT_EQ(zcc::minorValue(line, 100), 1u);
}

TEST(Zcc, ShrinkFailsWhenValueDoesNotFit)
{
    CachelineData line;
    zcc::init(line, 0);
    for (unsigned i = 0; i < 16; ++i)
        ASSERT_TRUE(zcc::insertNonZero(line, i));
    zcc::setMinor(line, 0, 256); // needs 9 bits; next width is 8
    CachelineData before = line;
    EXPECT_FALSE(zcc::insertNonZero(line, 100));
    EXPECT_EQ(line, before) << "failed insert must not modify the line";
}

TEST(Zcc, ResetAllClearsCountersAndSetsMajor)
{
    CachelineData line;
    zcc::init(line, 5);
    for (unsigned i = 0; i < 10; ++i)
        ASSERT_TRUE(zcc::insertNonZero(line, i * 3));
    writeBits(line, 448, 64, 0x1234); // the MAC field

    zcc::resetAll(line, 999);
    EXPECT_TRUE(zcc::isZcc(line));
    EXPECT_EQ(zcc::majorOf(line), 999u);
    EXPECT_EQ(zcc::count(line), 0u);
    EXPECT_EQ(zcc::ctrSz(line), 16u);
    EXPECT_EQ(readBits(line, 448, 64), 0x1234u)
        << "reset must not clobber the MAC field";
}

TEST(Zcc, FillToSixtyFour)
{
    CachelineData line;
    zcc::init(line, 0);
    for (unsigned i = 0; i < 64; ++i)
        ASSERT_TRUE(zcc::insertNonZero(line, 2 * i));
    EXPECT_EQ(zcc::count(line), 64u);
    EXPECT_EQ(zcc::ctrSz(line), 4u);
    for (unsigned i = 0; i < 64; ++i)
        EXPECT_EQ(zcc::minorValue(line, 2 * i), 1u);
}

TEST(Zcc, MajorFieldBoundary)
{
    CachelineData line;
    const std::uint64_t max_major = (1ull << zcc::majorBits) - 1;
    zcc::init(line, max_major);
    EXPECT_EQ(zcc::majorOf(line), max_major);
    EXPECT_EQ(zcc::count(line), 0u)
        << "major bits must not leak into the bit-vector";
}

// ---------------------------------------------------------------------
// insertNonZero against the full re-encode it replaced on same-width
// inserts. oldInsertNonZero is that routine, kept verbatim: it reads
// all k slots, clears the payload and writes k + 1 slots back.
// ---------------------------------------------------------------------

bool
oldInsertNonZero(CachelineData &line, unsigned idx)
{
    using namespace zcc;
    MORPH_CHECK_CONTEXT(line);
    MORPH_CHECK_LT(idx, numCounters);
    MORPH_CHECK(!isNonZero(line, idx));

    const unsigned k = count(line);
    MORPH_CHECK_LT(k, maxNonZero);
    const unsigned old_size = ctrSz(line);
    const unsigned new_size = sizeForCount(k + 1);
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
    const unsigned new_rank = rankOf(line, idx);
    for (unsigned rank = k; rank > new_rank; --rank)
        values[rank] = values[rank - 1];
    values[new_rank] = 1;

    // Re-encode at the new width. Clear the payload first so stale
    // high slots from the wider encoding cannot survive.
    setBit(line, bvOffset + idx, true);
    writeBits(line, ctrSzOffset, ctrSzBits, new_size);
    for (unsigned bit = 0; bit < payloadBits; bit += 64)
        writeBits(line, payloadOffset + bit, 64, 0);
    for (unsigned rank = 0; rank <= k; ++rank)
        writeBits(line, slotOffset(rank, new_size), new_size,
                  values[rank]);
    return true;
}

/** Insert @p idx with both routines; they must agree on the outcome
 *  and on every bit of the line. */
void
expectSameInsert(const CachelineData &line, unsigned idx)
{
    CachelineData expected = line;
    CachelineData actual = line;
    const bool expected_ok = oldInsertNonZero(expected, idx);
    ASSERT_EQ(zcc::insertNonZero(actual, idx), expected_ok)
        << "k " << zcc::count(line) << " idx " << idx;
    ASSERT_EQ(actual, expected)
        << "k " << zcc::count(line) << " idx " << idx << " ctrSz "
        << zcc::ctrSz(line);
}

/** A ZCC line whose live children are @p live (ascending), stored at
 *  @p size bits with slot values from @p value; @p junk fills every
 *  payload bit past the live slots, as a stale encoding leaves it. */
template <typename ValueFn>
CachelineData
makeLine(const std::vector<unsigned> &live, unsigned size, ValueFn value,
         bool junk, Rng &rng)
{
    CachelineData line;
    zcc::init(line, rng.below(1ull << 40));
    writeBits(line, zcc::ctrSzOffset, zcc::ctrSzBits, size);
    for (unsigned i : live)
        setBit(line, zcc::bvOffset + i, true);
    const unsigned end = unsigned(live.size()) * size;
    for (unsigned bit = end; junk && bit < zcc::payloadBits; ++bit)
        setBit(line, zcc::payloadOffset + bit, rng.below(2) != 0);
    for (unsigned rank = 0; rank < live.size(); ++rank)
        writeBits(line, zcc::slotOffset(rank, size), size, value(rank));
    return line;
}

TEST(ZccInsertDifferential, EveryCountAndRankMatchesReencode)
{
    // Every population k in 0..63 at its scheduled width, the new
    // child at every rank 0..k, values that fit the next width and
    // values that fill this one (which fail at a bucket edge), with
    // and without junk above the live slots.
    Rng rng(27);
    for (unsigned k = 0; k < zcc::maxNonZero; ++k) {
        const unsigned size = zcc::sizeForCount(k);
        const unsigned next = zcc::sizeForCount(k + 1);
        for (unsigned rank = 0; rank <= k; ++rank) {
            // k + 1 distinct children; the one at `rank` is the new one.
            std::vector<unsigned> kids(zcc::numCounters);
            for (unsigned i = 0; i < zcc::numCounters; ++i)
                kids[i] = i;
            for (unsigned i = 0; i <= k; ++i)
                std::swap(kids[i],
                          kids[i + rng.below(zcc::numCounters - i)]);
            kids.resize(k + 1);
            std::sort(kids.begin(), kids.end());
            const unsigned idx = kids[rank];
            kids.erase(kids.begin() + rank);
            for (const bool junk : {false, true}) {
                for (const unsigned width : {next, size}) {
                    const std::uint64_t max = (1ull << width) - 1;
                    const CachelineData line = makeLine(
                        kids, size,
                        [&](unsigned) { return 1 + rng.below(max); },
                        junk, rng);
                    expectSameInsert(line, idx);
                }
            }
        }
    }
}

TEST(ZccInsertDifferential, BucketEdgesFailOnlyWhenAValueDoesNotFit)
{
    // At each edge the width shrinks: a live value of exactly the new
    // maximum still fits, one more fails and leaves the line as it
    // was, wherever that value sits.
    Rng rng(51);
    for (const unsigned k : {16u, 32u, 36u, 42u, 51u}) {
        const unsigned size = zcc::sizeForCount(k);
        const std::uint64_t new_max = (1ull << zcc::sizeForCount(k + 1)) - 1;
        std::vector<unsigned> kids(k);
        for (unsigned i = 0; i < k; ++i)
            kids[i] = 2 * i;
        for (unsigned at = 0; at < k; ++at) {
            for (const std::uint64_t big : {new_max, new_max + 1}) {
                const CachelineData line = makeLine(
                    kids, size,
                    [&](unsigned rank) { return rank == at ? big : 1; },
                    false, rng);
                expectSameInsert(line, 2 * at + 1);
                CachelineData copy = line;
                EXPECT_EQ(zcc::insertNonZero(copy, 2 * at + 1),
                          big == new_max)
                    << "k " << k << " at " << at;
            }
        }
    }
}

TEST(ZccInsertDifferential, SeededWholeLineFuzz)
{
    // Whole random lines: junk in every payload bit, the major and the
    // MAC; any population; a Ctr-Sz that is the schedule's, the next
    // bucket's (as a wrong-bucket line stores it) or any width the
    // live slots fit in.
    Rng rng(2718);
    const unsigned widths[] = {4, 5, 6, 7, 8, 16};
    for (int trial = 0; trial < 200000; ++trial) {
        CachelineData line;
        for (auto &byte : line)
            byte = std::uint8_t(rng.below(256));
        setBit(line, zcc::fOffset, false);
        const unsigned k = unsigned(rng.below(zcc::maxNonZero));
        writeBits(line, zcc::bvOffset, 64, 0);
        writeBits(line, zcc::bvOffset + 64, 64, 0);
        for (unsigned set = 0; set < k;) {
            const unsigned i = unsigned(rng.below(zcc::numCounters));
            if (!zcc::isNonZero(line, i)) {
                setBit(line, zcc::bvOffset + i, true);
                ++set;
            }
        }
        unsigned size;
        switch (rng.below(4)) {
        case 0: size = zcc::sizeForCount(k); break;
        case 1: size = zcc::sizeForCount(k + 1); break;
        default:
            do
                size = widths[rng.below(6)];
            while (k * size > zcc::payloadBits);
        }
        writeBits(line, zcc::ctrSzOffset, zcc::ctrSzBits, size);
        unsigned idx;
        do
            idx = unsigned(rng.below(zcc::numCounters));
        while (zcc::isNonZero(line, idx));
        expectSameInsert(line, idx);
    }
}

} // namespace
} // namespace morph
