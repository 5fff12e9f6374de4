/**
 * @file
 * Top-level DRAM system: channel demux plus aggregate accounting.
 */

#ifndef MORPH_DRAM_DRAM_SYSTEM_HH
#define MORPH_DRAM_DRAM_SYSTEM_HH

#include <string>
#include <vector>

#include "dram/channel.hh"

namespace morph
{

class StatRegistry;

/** The main-memory system (all channels). */
class DramSystem
{
  public:
    explicit DramSystem(const DramConfig &config = DramConfig{});

    /**
     * Schedule one 64-byte access submitted at CPU cycle @p when.
     *
     * @param timing optional lifecycle detail for tracing (channel
     *               index, queue/burst/complete cycles)
     * @return completion CPU cycle (data burst fully transferred)
     */
    Cycle
    access(LineAddr line, AccessType type, Cycle when,
           DramAccessTiming *timing = nullptr)
    {
        const DramCoord coord = decoder_.decode(line);
        if (timing)
            timing->channel = coord.channel;
        return channels_[coord.channel].access(coord, type, when, timing);
    }

    /** Aggregate activity over all channels. */
    ChannelActivity totalActivity() const;

    /** Per-channel activity. */
    const ChannelActivity &activity(unsigned channel) const;

    /** Zero all activity counters (warm-up boundary). */
    void resetActivity();

    /**
     * Register per-channel activity counters ("<prefix>.chN.*") and
     * aggregate gauges ("<prefix>.row_hit_rate", ...) into
     * @p registry. Pointers into the channels are held; the registry
     * must not outlive this system.
     */
    void registerStats(StatRegistry &registry,
                       const std::string &prefix) const;

    const DramConfig &config() const { return config_; }

  private:
    DramConfig config_;
    LineDecoder decoder_;
    std::vector<Channel> channels_;
};

} // namespace morph

#endif // MORPH_DRAM_DRAM_SYSTEM_HH
