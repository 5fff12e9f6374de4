/**
 * @file
 * Unit tests for the Zero Counter Compression codec.
 */

#include <gtest/gtest.h>

#include "common/bitfield.hh"
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

} // namespace
} // namespace morph
