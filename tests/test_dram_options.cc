/**
 * @file
 * Tests for the optional DRAM realism features: refresh windows and
 * posted-write queueing with read priority and FIFO drains.
 */

#include <gtest/gtest.h>

#include <vector>

#include "dram/channel.hh"
#include "dram/dram_system.hh"

namespace morph
{
namespace
{

TEST(DramRefresh, BlocksAccessesInsideTheWindow)
{
    DramConfig config;
    config.refresh = true;
    DramSystem dram(config);

    // An access submitted right at the start of rank 0's refresh
    // window waits ~tRFC longer than one submitted after it.
    DramConfig no_refresh;
    DramSystem baseline(no_refresh);
    const Cycle with = dram.access(0, AccessType::Read, 0);
    const Cycle without = baseline.access(0, AccessType::Read, 0);
    EXPECT_GE(with, without + config.cpu(config.tRFC) -
                        config.cpu(config.tRCD));
}

TEST(DramRefresh, CountsRefreshes)
{
    DramConfig config;
    config.refresh = true;
    DramSystem dram(config);
    // Submit accesses far apart: elapsed refresh windows accumulate.
    const Cycle ten_intervals = config.cpu(config.tREFI) * 10;
    dram.access(0, AccessType::Read, 0);
    dram.access(2, AccessType::Read, ten_intervals);
    EXPECT_GE(dram.totalActivity().refreshes, 10u);
}

TEST(DramRefresh, OffByDefault)
{
    DramSystem dram;
    dram.access(0, AccessType::Read, 0);
    EXPECT_EQ(dram.totalActivity().refreshes, 0u);
}

TEST(DramWriteQueue, WritesArePostedUntilHighWatermark)
{
    DramConfig config;
    config.writeQueueing = true;
    config.writeQueueHigh = 8;
    config.writeQueueLow = 2;
    DramSystem dram(config);

    // Seven writes: all posted, none reach the banks yet.
    for (LineAddr line = 0; line < 7; ++line) {
        const Cycle done = dram.access(line * 2, AccessType::Write,
                                       100);
        EXPECT_EQ(done, 100u) << "posted write must return immediately";
    }
    EXPECT_EQ(dram.totalActivity().writes, 0u);

    // The eighth crosses the watermark: a drain runs 6 writes
    // (down to the low watermark).
    dram.access(14, AccessType::Write, 100);
    EXPECT_EQ(dram.totalActivity().writeDrains, 1u);
    EXPECT_EQ(dram.totalActivity().writes, 6u);
}

TEST(DramWriteQueue, DrainsOldestFirstInFifoOrder)
{
    // Same bank, alternating rows: the row-buffer outcome of every
    // write depends on the order the drain issues them. A channel
    // without queueing that takes the same writes inline, oldest
    // first, at each drain's cycle must end in exactly the same state.
    DramConfig queued_config;
    queued_config.writeQueueing = true;
    queued_config.writeQueueHigh = 8;
    queued_config.writeQueueLow = 2;
    DramConfig inline_config;
    Channel queued(queued_config);
    Channel inline_channel(inline_config);

    std::vector<DramCoord> writes;
    for (unsigned i = 0; i < 14; ++i)
        writes.push_back({0, 0, 0, i % 3, i % 4});

    // Writes 0..7 fill the queue; the eighth drains 0..5 at cycle 100.
    for (unsigned i = 0; i < 8; ++i)
        queued.access(writes[i], AccessType::Write, 100);
    EXPECT_EQ(queued.activity().writeDrains, 1u);
    EXPECT_EQ(queued.activity().writes, 6u);
    for (unsigned i = 0; i < 6; ++i)
        inline_channel.access(writes[i], AccessType::Write, 100);

    // Writes 8..13 refill it; the last drains 6..11 at cycle 5000,
    // leftovers first.
    for (unsigned i = 8; i < 14; ++i)
        queued.access(writes[i], AccessType::Write, 5000);
    EXPECT_EQ(queued.activity().writeDrains, 2u);
    EXPECT_EQ(queued.activity().writes, 12u);
    for (unsigned i = 6; i < 12; ++i)
        inline_channel.access(writes[i], AccessType::Write, 5000);

    const ChannelActivity &q = queued.activity();
    const ChannelActivity &r = inline_channel.activity();
    EXPECT_EQ(q.writes, r.writes);
    EXPECT_EQ(q.activates, r.activates);
    EXPECT_EQ(q.rowHits, r.rowHits);
    EXPECT_EQ(q.rowClosed, r.rowClosed);
    EXPECT_EQ(q.rowConflicts, r.rowConflicts);
    EXPECT_EQ(q.busBusyCycles, r.busBusyCycles);
    EXPECT_EQ(queued.busFreeAt(), inline_channel.busFreeAt());
    EXPECT_GT(q.rowConflicts, 0u); // the order was observable

    // The bank is left in the same state: a read sees the same row.
    const DramCoord probe{0, 0, 0, 2, 0};
    EXPECT_EQ(queued.access(probe, AccessType::Read, 9000),
              inline_channel.access(probe, AccessType::Read, 9000));
}

TEST(DramWriteQueue, ReadsBypassBufferedWrites)
{
    DramConfig queued;
    queued.writeQueueing = true;
    DramConfig inline_writes;

    DramSystem with_queue(queued);
    DramSystem without_queue(inline_writes);

    // A burst of writes followed by a read: with queueing the read is
    // not stuck behind the writes.
    Cycle read_with = 0, read_without = 0;
    for (LineAddr line = 0; line < 16; ++line) {
        with_queue.access(line * 2, AccessType::Write, 0);
        without_queue.access(line * 2, AccessType::Write, 0);
    }
    read_with = with_queue.access(1000, AccessType::Read, 0);
    read_without = without_queue.access(1000, AccessType::Read, 0);
    EXPECT_LT(read_with, read_without);
}

TEST(DramWriteQueue, OffByDefaultWritesAreInline)
{
    DramSystem dram;
    dram.access(0, AccessType::Write, 0);
    EXPECT_EQ(dram.totalActivity().writes, 1u);
    EXPECT_EQ(dram.totalActivity().writeDrains, 0u);
}

} // namespace
} // namespace morph
