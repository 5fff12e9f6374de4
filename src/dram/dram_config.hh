/**
 * @file
 * DDR3 main-memory configuration (paper Table I).
 *
 * Baseline: DDR3-1600 (800 MHz bus), 2 channels x 2 ranks x 8 banks,
 * 64K rows per bank, 128 cachelines (8 KB) per row — a 16 GB system.
 * Timing parameters are in memory-bus cycles; the simulator runs on
 * the 3.2 GHz CPU clock, cpuPerMemCycle ticks per bus cycle.
 */

#ifndef MORPH_DRAM_DRAM_CONFIG_HH
#define MORPH_DRAM_DRAM_CONFIG_HH

#include <cstdint>

#include "common/types.hh"

namespace morph
{

/** Organization and timing of the DRAM system. */
struct DramConfig
{
    // Organization.
    unsigned channels = 2;
    unsigned ranksPerChannel = 2;
    unsigned banksPerRank = 8;
    unsigned linesPerRow = 128; ///< columns (cachelines) per row

    // Clocking: CPU cycles per memory-bus cycle (3.2 GHz / 800 MHz).
    unsigned cpuPerMemCycle = 4;
    double cpuFreqHz = 3.2e9;

    // DDR3-1600 timing, in memory-bus cycles.
    unsigned tCL = 11;   ///< CAS latency
    unsigned tCWL = 8;   ///< CAS write latency
    unsigned tRCD = 11;  ///< RAS-to-CAS delay
    unsigned tRP = 11;   ///< precharge
    unsigned tRAS = 28;  ///< row-active minimum
    unsigned tBURST = 4; ///< BL8 data burst
    unsigned tCCD = 4;   ///< CAS-to-CAS, same bank group
    unsigned tWR = 12;   ///< write recovery
    unsigned tRTP = 6;   ///< read-to-precharge
    unsigned tRRD = 5;   ///< ACT-to-ACT, same rank
    unsigned tFAW = 32;  ///< four-activate window

    // Refresh (per rank, staggered). Disabled by default so the
    // headline experiments match EXPERIMENTS.md; enable for absolute
    // latency realism (adds the usual ~2-4% slowdown).
    bool refresh = false;
    unsigned tREFI = 6240; ///< refresh interval (7.8 us @ 800 MHz)
    unsigned tRFC = 208;   ///< refresh cycle time (4 Gb device)

    // Posted-write buffering with read priority. When enabled,
    // writes enter a per-channel queue and only occupy the bus when
    // the queue crosses the high watermark (drained down to the low
    // one) — the USIMM write-drain policy. Disabled by default (see
    // above).
    bool writeQueueing = false;
    unsigned writeQueueHigh = 32;
    unsigned writeQueueLow = 16;

    /** Helpers in CPU cycles. */
    Cycle cpu(unsigned mem_cycles) const
    {
        return Cycle(mem_cycles) * cpuPerMemCycle;
    }

    /** Total banks across the system. */
    unsigned totalBanks() const
    {
        return channels * ranksPerChannel * banksPerRank;
    }

    bool operator==(const DramConfig &) const = default;
};

/** Decoded position of a line in the DRAM system. */
struct DramCoord
{
    unsigned channel;
    unsigned rank;
    unsigned bank;
    std::uint64_t row;
    unsigned column;
};

/**
 * Address mapping: channel-interleaved at line granularity with
 * row-buffer-friendly column placement:
 *
 *   line -> | row | rank | bank | column | channel |
 *
 * Consecutive lines alternate channels and then walk columns within
 * a row, so streaming accesses enjoy row-buffer hits on both channels.
 */
DramCoord decodeLine(const DramConfig &config, LineAddr line);

/**
 * decodeLine() with its divisors resolved once, at construction. When
 * channels, linesPerRow, banksPerRank and ranksPerChannel are all
 * powers of two (every shipped configuration) each field is a shift
 * and a mask; otherwise decode() calls decodeLine(), the reference.
 */
class LineDecoder
{
  public:
    /** Panics unless every organization field is at least 1. */
    explicit LineDecoder(const DramConfig &config);

    DramCoord
    decode(LineAddr line) const
    {
        if (!shifts_)
            return decodeLine(config_, line);
        DramCoord coord;
        coord.channel = unsigned(line & channelMask_);
        coord.column = unsigned((line >> columnShift_) & columnMask_);
        coord.bank = unsigned((line >> bankShift_) & bankMask_);
        coord.rank = unsigned((line >> rankShift_) & rankMask_);
        coord.row = line >> rowShift_;
        return coord;
    }

    /** True when decode() uses shifts and masks. */
    bool usesShifts() const { return shifts_; }

  private:
    DramConfig config_;
    bool shifts_ = false;
    unsigned columnShift_ = 0, bankShift_ = 0, rankShift_ = 0,
             rowShift_ = 0;
    std::uint64_t channelMask_ = 0, columnMask_ = 0, bankMask_ = 0,
                  rankMask_ = 0;
};

} // namespace morph

#endif // MORPH_DRAM_DRAM_CONFIG_HH
