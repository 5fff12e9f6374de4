/**
 * @file
 * The cacheline contract of docs/FORMATS.md: every format's fields
 * tile the 512-bit line, codec output sits at the documented raw bit
 * offsets, and the ZCC -> MCR morph fits the OTP counter width.
 *
 * Expected offsets and widths are written out from the specification,
 * not taken from the codec constants, so a constant that drifts from
 * the document fails here.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/bitfield.hh"
#include "counters/mcr_codec.hh"
#include "counters/rebased_split_counter.hh"
#include "counters/split_counter.hh"
#include "counters/zcc_codec.hh"

namespace morph
{
namespace
{

struct Field
{
    const char *name;
    unsigned offset;
    unsigned width;
};

/** Expect @p fields, in any order, to tile [0, 512) with no gap or
 *  overlap, the MAC last at [448, 512). */
void
expectPartition(std::vector<Field> fields)
{
    fields.push_back({"MAC", CounterFormat::macOffset, 64});
    std::sort(fields.begin(), fields.end(),
              [](const Field &a, const Field &b) {
                  return a.offset < b.offset;
              });
    unsigned next = 0;
    for (const Field &field : fields) {
        EXPECT_EQ(field.offset, next)
            << field.name << (field.offset > next ? " leaves a gap"
                                                  : " overlaps");
        next = field.offset + field.width;
    }
    EXPECT_EQ(next, 512u) << "the fields do not end at the line's end";
    EXPECT_EQ(CounterFormat::macOffset, 448u);
}

TEST(Formats, ZccFieldsPartitionTheLine)
{
    expectPartition({{"format flag", zcc::fOffset, 1},
                     {"Ctr-Sz", zcc::ctrSzOffset, zcc::ctrSzBits},
                     {"major", zcc::majorOffset, zcc::majorBits},
                     {"bit-vector", zcc::bvOffset, zcc::bvBits},
                     {"payload", zcc::payloadOffset, zcc::payloadBits}});
    EXPECT_EQ(zcc::bvBits, zcc::numCounters) << "one bit per child";
    EXPECT_GE((1u << zcc::ctrSzBits) - 1, 16u)
        << "Ctr-Sz must hold the 16-bit width";
    EXPECT_EQ(zcc::payloadBits, zcc::maxNonZero * 4)
        << "the payload is 64 counters at the 4-bit floor";
}

TEST(Formats, McrFieldsPartitionTheLine)
{
    expectPartition(
        {{"format flag", mcr::fOffset, 1},
         {"major", mcr::majorOffset, mcr::majorBits},
         {"base 0", mcr::base0Offset, mcr::baseBits},
         {"base 1", mcr::base0Offset + mcr::baseBits, mcr::baseBits},
         {"minors", mcr::minorFieldOffset,
          mcr::numCounters * mcr::minorBits}});
    EXPECT_EQ(mcr::numSets * mcr::setSize, mcr::numCounters);
    EXPECT_EQ(mcr::minorMax, (1u << mcr::minorBits) - 1);
    EXPECT_EQ(mcr::baseMax, (1u << mcr::baseBits) - 1);
}

TEST(Formats, SplitCounterFieldsPartitionTheLine)
{
    // SC-n: major(64) | n minors; SC-n+R: major(57) | base(7) | n
    // minors. The minors fill the 384 bits between them and the MAC.
    for (unsigned n : {8u, 16u, 32u, 64u, 128u}) {
        SCOPED_TRACE("arity " + std::to_string(n));
        const SplitCounterFormat split(n);
        EXPECT_EQ(split.arity(), n);
        expectPartition(
            {{"major", 0, 64}, {"minors", 64, n * split.minorBits()}});
        const RebasedSplitCounterFormat rebased(n);
        EXPECT_EQ(rebased.arity(), n);
        expectPartition({{"major", 0, 57},
                         {"base", 57, 7},
                         {"minors", 64, n * rebased.minorBits()}});
    }
}

TEST(Formats, ZccFieldsSitAtDocumentedOffsets)
{
    CachelineData line;
    zcc::init(line, 0x0123456789abcdull);
    EXPECT_EQ(readBits(line, 0, 1), 0u) << "format flag";
    EXPECT_EQ(readBits(line, 7, 57), 0x0123456789abcdull) << "major";
    EXPECT_EQ(readBits(line, 1, 6), 16u) << "Ctr-Sz after init";
    zcc::insertNonZero(line, 5);
    EXPECT_EQ(readBits(line, 64 + 5, 1), 1u) << "bit-vector bit 5";
    EXPECT_EQ(readBits(line, 192, 16), 1u) << "rank-0 counter";
    CounterFormat::setMac(line, 0xfeedfacecafebeefull);
    EXPECT_EQ(readBits(line, 448, 64), 0xfeedfacecafebeefull) << "MAC";
    EXPECT_EQ(zcc::majorOf(line), 0x0123456789abcdull)
        << "a MAC write must leave the major intact";
}

TEST(Formats, McrFieldsSitAtDocumentedOffsets)
{
    CachelineData line;
    mcr::init(line, 0x1ffffffffffffull, 0x55);
    EXPECT_EQ(readBits(line, 0, 1), 1u) << "format flag";
    EXPECT_EQ(readBits(line, 1, 49), 0x1ffffffffffffull) << "major";
    EXPECT_EQ(readBits(line, 50, 7), 0x55u) << "base 0";
    EXPECT_EQ(readBits(line, 57, 7), 0x55u) << "base 1";
    mcr::setMinor(line, 70, 5);
    EXPECT_EQ(readBits(line, 64 + 70 * 3, 3), 5u) << "minor 70";
    EXPECT_EQ(mcr::effective(line, 70),
              ((0x1ffffffffffffull << 7) | 0x55u) + 5);
}

TEST(Formats, Sc64FieldsSitAtDocumentedOffsets)
{
    const SplitCounterFormat format(64);
    CachelineData line;
    format.init(line);
    for (int i = 0; i < 3; ++i)
        format.increment(line, 9);
    EXPECT_EQ(readBits(line, 64 + 9 * 6, 6), 3u) << "minor 9";
    EXPECT_EQ(readBits(line, 0, 64), 0u) << "major";
    EXPECT_EQ(format.read(line, 9), 3u);
}

TEST(Formats, MorphFitsTheOtpCounterWidth)
{
    // The ZCC -> MCR morph splits the ZCC major into (major, base);
    // both must together equal the 56-bit counter field of the AES-CTR
    // seed, and the ZCC major must hold every such value.
    EXPECT_EQ(mcr::majorBits + mcr::baseBits, 56u);
    EXPECT_LE(mcr::majorBits + mcr::baseBits, zcc::majorBits);
}

} // namespace
} // namespace morph
