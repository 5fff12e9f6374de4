/**
 * @file
 * Tests for the DDR3 timing model: address mapping, row-buffer
 * behaviour, bus serialization, and activity accounting.
 */

#include <gtest/gtest.h>

#include <memory>

#include "common/rng.hh"
#include "dram/dram_power.hh"
#include "dram/dram_system.hh"

namespace morph
{
namespace
{

TEST(DramAddressMap, FieldsDecodeAndInterleave)
{
    DramConfig config;
    const DramCoord c0 = decodeLine(config, 0);
    const DramCoord c1 = decodeLine(config, 1);
    EXPECT_EQ(c0.channel, 0u);
    EXPECT_EQ(c1.channel, 1u);
    EXPECT_EQ(c0.row, c1.row);

    // Two consecutive even lines differ only in column.
    const DramCoord c2 = decodeLine(config, 2);
    EXPECT_EQ(c2.channel, 0u);
    EXPECT_EQ(c2.column, c0.column + 1);
    EXPECT_EQ(c2.bank, c0.bank);
}

TEST(DramAddressMap, RowCapacity)
{
    DramConfig config;
    // One row per (channel, bank): linesPerRow columns; the row index
    // increments only after channels * linesPerRow * banks * ranks
    // lines.
    const std::uint64_t lines_per_row_group =
        std::uint64_t(config.channels) * config.linesPerRow *
        config.banksPerRank * config.ranksPerChannel;
    EXPECT_EQ(decodeLine(config, lines_per_row_group - 1).row, 0u);
    EXPECT_EQ(decodeLine(config, lines_per_row_group).row, 1u);
}

void
expectDecoderMatchesReference(const DramConfig &config, bool shifts)
{
    const LineDecoder decoder(config);
    EXPECT_EQ(decoder.usesShifts(), shifts);
    Rng rng(0xd3c0de);
    for (int i = 0; i < 100000; ++i) {
        // Small lines walk every field; raw draws set the high bits.
        const LineAddr line =
            i % 2 ? rng.next() : rng.below(1ull << 24);
        const DramCoord want = decodeLine(config, line);
        const DramCoord got = decoder.decode(line);
        ASSERT_EQ(got.channel, want.channel) << "line " << line;
        ASSERT_EQ(got.rank, want.rank) << "line " << line;
        ASSERT_EQ(got.bank, want.bank) << "line " << line;
        ASSERT_EQ(got.row, want.row) << "line " << line;
        ASSERT_EQ(got.column, want.column) << "line " << line;
    }
}

TEST(DramAddressMap, ShiftDecoderMatchesReference)
{
    expectDecoderMatchesReference(DramConfig{}, true);
}

TEST(DramAddressMap, NonPowerOfTwoDecoderMatchesReference)
{
    DramConfig config;
    config.channels = 3;
    config.linesPerRow = 96;
    expectDecoderMatchesReference(config, false);
}

TEST(DramAddressMapDeath, RejectsZeroChannels)
{
    DramConfig config;
    config.channels = 0;
    EXPECT_DEATH(LineDecoder{config}, "channels");
}

TEST(DramTiming, RowHitFasterThanRowMiss)
{
    DramSystem dram;
    const DramConfig &config = dram.config();

    // First access opens the row (ACT + CAS).
    const Cycle first = dram.access(0, AccessType::Read, 0);
    EXPECT_EQ(first, config.cpu(config.tRCD + config.tCL +
                                config.tBURST));

    // Same row, later: CAS only.
    const Cycle start = 10000;
    const Cycle hit = dram.access(2, AccessType::Read, start);
    EXPECT_EQ(hit, start + config.cpu(config.tCL + config.tBURST));

    // Different row, same bank: PRE + ACT + CAS.
    const std::uint64_t conflict_line =
        std::uint64_t(config.channels) * config.linesPerRow *
        config.banksPerRank * config.ranksPerChannel;
    const Cycle start2 = 20000;
    const Cycle miss = dram.access(conflict_line, AccessType::Read,
                                   start2);
    EXPECT_EQ(miss, start2 + config.cpu(config.tRP + config.tRCD +
                                        config.tCL + config.tBURST));
}

TEST(DramTiming, BusSerializesSameChannel)
{
    DramSystem dram;
    const DramConfig &config = dram.config();
    // Two row hits in the same row: second is delayed by the burst.
    dram.access(0, AccessType::Read, 0);
    const Cycle a = dram.access(2, AccessType::Read, 10000);
    const Cycle b = dram.access(4, AccessType::Read, 10000);
    EXPECT_EQ(b - a, config.cpu(config.tBURST));
}

TEST(DramTiming, ChannelsOperateIndependently)
{
    DramSystem dram;
    // Saturate channel 0's bus; channel 1 must be unaffected.
    dram.access(0, AccessType::Read, 0);
    const Cycle ch0 = dram.access(2, AccessType::Read, 0);
    const Cycle ch1 = dram.access(1, AccessType::Read, 0);
    EXPECT_LT(ch1, ch0);
}

TEST(DramTiming, CompletionNeverBeforeSubmission)
{
    DramSystem dram;
    Cycle last = 0;
    for (LineAddr line = 0; line < 500; ++line) {
        const Cycle done = dram.access(line * 37, AccessType::Read,
                                       line * 3);
        EXPECT_GT(done, line * 3);
        last = std::max(last, done);
    }
    EXPECT_GT(last, 0u);
}

TEST(DramTiming, FawLimitsActivateBursts)
{
    DramSystem dram;
    const DramConfig &config = dram.config();
    // Five row-miss accesses to distinct banks of one rank: the fifth
    // ACT must wait for the tFAW window.
    std::uint64_t lines[5];
    for (unsigned i = 0; i < 5; ++i) {
        // Same channel (0), bank i, rank 0, row 0.
        lines[i] = std::uint64_t(i % config.banksPerRank) *
                   (config.channels * config.linesPerRow);
    }
    Cycle done[5];
    for (unsigned i = 0; i < 5; ++i)
        done[i] = dram.access(lines[i], AccessType::Read, 0);
    // With tFAW = 32 mem cycles and tRRD = 5, the 5th activate lands
    // at >= tFAW; its completion exceeds the 4th's by more than one
    // burst slot.
    EXPECT_GT(done[4], done[3] + config.cpu(config.tBURST) - 1);
}

TEST(DramActivity, CountsOpsAndRowOutcomes)
{
    DramSystem dram;
    dram.access(0, AccessType::Read, 0);   // closed -> ACT
    dram.access(2, AccessType::Read, 0);   // hit
    dram.access(2, AccessType::Write, 0);  // hit
    const auto activity = dram.totalActivity();
    EXPECT_EQ(activity.reads, 2u);
    EXPECT_EQ(activity.writes, 1u);
    EXPECT_EQ(activity.activates, 1u);
    EXPECT_EQ(activity.rowHits, 2u);
    EXPECT_EQ(activity.rowClosed, 1u);
    EXPECT_EQ(activity.rowConflicts, 0u);
}

TEST(DramActivity, ResetClears)
{
    DramSystem dram;
    dram.access(0, AccessType::Read, 0);
    dram.resetActivity();
    const auto activity = dram.totalActivity();
    EXPECT_EQ(activity.reads + activity.writes + activity.activates,
              0u);
}

TEST(DramSystem, CopyOutlivesSource)
{
    // A copy owns its timing: once the source is gone (and its storage
    // reused by a system with other timings), the copy must go on
    // exactly like a system that was never copied.
    DramConfig config;
    config.tCL = 14;
    config.tRCD = 13;
    config.tRP = 13;
    config.refresh = true;
    DramSystem reference(config);
    auto source = std::make_unique<DramSystem>(config);
    Cycle when = 0;
    for (LineAddr line = 0; line < 64; ++line) {
        reference.access(line * 97, AccessType::Read, when);
        source->access(line * 97, AccessType::Read, when);
        when += 40;
    }

    DramSystem copy(*source);
    source.reset();
    DramConfig other;
    other.tCL = 40;
    other.tBURST = 9;
    other.ranksPerChannel = 1;
    const auto scribble = std::make_unique<DramSystem>(other);

    for (LineAddr line = 0; line < 512; ++line) {
        const AccessType type =
            line % 3 ? AccessType::Read : AccessType::Write;
        ASSERT_EQ(copy.access(line * 131, type, when),
                  reference.access(line * 131, type, when))
            << "line " << line;
        when += 25;
    }
    const ChannelActivity got = copy.totalActivity();
    const ChannelActivity want = reference.totalActivity();
    EXPECT_EQ(got.activates, want.activates);
    EXPECT_EQ(got.rowConflicts, want.rowConflicts);
    EXPECT_EQ(got.refreshes, want.refreshes);
    EXPECT_EQ(got.busBusyCycles, want.busBusyCycles);
}

TEST(DramPower, EnergyComposition)
{
    DramPowerParams params;
    ChannelActivity activity;
    activity.activates = 1000;
    activity.reads = 2000;
    activity.writes = 500;
    const DramEnergy energy = dramEnergy(params, activity, 0.01, 4);
    EXPECT_DOUBLE_EQ(energy.activateJ, 1000 * params.activateEnergyJ);
    EXPECT_DOUBLE_EQ(energy.readJ, 2000 * params.readEnergyJ);
    EXPECT_DOUBLE_EQ(energy.writeJ, 500 * params.writeEnergyJ);
    EXPECT_DOUBLE_EQ(energy.backgroundJ,
                     params.backgroundWattsPerRank * 4 * 0.01);
    EXPECT_DOUBLE_EQ(energy.totalJ(),
                     energy.activateJ + energy.readJ + energy.writeJ +
                         energy.backgroundJ);
}

TEST(DramPower, MoreTrafficMoreEnergy)
{
    DramSystem dram;
    for (LineAddr line = 0; line < 100; ++line)
        dram.access(line * 13, AccessType::Read, 0);
    const auto light = dramEnergy(DramPowerParams{},
                                  dram.totalActivity(), 0.001, 8);
    for (LineAddr line = 0; line < 10000; ++line)
        dram.access(line * 13, AccessType::Read, 0);
    const auto heavy = dramEnergy(DramPowerParams{},
                                  dram.totalActivity(), 0.001, 8);
    EXPECT_GT(heavy.totalJ(), light.totalJ());
}

} // namespace
} // namespace morph
