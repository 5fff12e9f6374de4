#include "dram/dram_system.hh"

#include "common/check.hh"
#include "common/prof.hh"
#include "common/stat_registry.hh"

namespace morph
{

DramSystem::DramSystem(const DramConfig &config)
    : config_(config), decoder_(config)
{
    channels_.reserve(config_.channels);
    for (unsigned c = 0; c < config_.channels; ++c)
        channels_.emplace_back(config_);
}

Cycle
DramSystem::access(LineAddr line, AccessType type, Cycle when,
                   DramAccessTiming *timing)
{
    MORPH_PROF_SCOPE("dram.access");
    const DramCoord coord = decoder_.decode(line);
    if (timing)
        timing->channel = coord.channel;
    return channels_[coord.channel].access(coord, type, when, timing);
}

ChannelActivity
DramSystem::totalActivity() const
{
    ChannelActivity total;
    for (const auto &channel : channels_) {
        const auto &a = channel.activity();
        total.reads += a.reads;
        total.writes += a.writes;
        total.activates += a.activates;
        total.refreshes += a.refreshes;
        total.rowHits += a.rowHits;
        total.rowClosed += a.rowClosed;
        total.rowConflicts += a.rowConflicts;
        total.writeDrains += a.writeDrains;
        total.busBusyCycles += a.busBusyCycles;
    }
    return total;
}

const ChannelActivity &
DramSystem::activity(unsigned channel) const
{
    MORPH_CHECK_LT(channel, channels_.size());
    return channels_[channel].activity();
}

void
DramSystem::resetActivity()
{
    for (auto &channel : channels_)
        channel.resetActivity();
}

void
DramSystem::registerStats(StatRegistry &registry,
                          const std::string &prefix) const
{
    for (std::size_t c = 0; c < channels_.size(); ++c) {
        const ChannelActivity &a = channels_[c].activity();
        const std::string base =
            prefix + ".ch" + std::to_string(c);
        registry.counter(base + ".reads", &a.reads,
                         "read bursts on this channel");
        registry.counter(base + ".writes", &a.writes,
                         "write bursts on this channel");
        registry.counter(base + ".activates", &a.activates,
                         "row activations on this channel");
        registry.counter(base + ".row_hits", &a.rowHits,
                         "open-row hits on this channel");
        registry.counter(base + ".row_conflicts", &a.rowConflicts,
                         "row-buffer conflicts on this channel");
        registry.counter(base + ".refreshes", &a.refreshes,
                         "refresh windows elapsed on this channel");
        registry.counter(base + ".bus_busy_cycles", &a.busBusyCycles,
                         "data-bus occupancy, CPU cycles");
        registry.gauge(
            base + ".utilisation",
            [this, c]() {
                const ChannelActivity &act =
                    channels_[c].activity();
                const Cycle free_at = channels_[c].busFreeAt();
                return free_at
                           ? double(act.busBusyCycles) /
                                 double(free_at)
                           : 0.0;
            },
            "bus-busy cycles / elapsed channel cycles");
    }
    registry.counter(
        prefix + ".reads",
        [this]() { return totalActivity().reads; },
        "read bursts, all channels");
    registry.counter(
        prefix + ".writes",
        [this]() { return totalActivity().writes; },
        "write bursts, all channels");
    registry.counter(
        prefix + ".activates",
        [this]() { return totalActivity().activates; },
        "row activations, all channels");
    registry.gauge(
        prefix + ".row_hit_rate",
        [this]() {
            const ChannelActivity a = totalActivity();
            const std::uint64_t accesses = a.reads + a.writes;
            return accesses ? double(a.rowHits) / double(accesses)
                            : 0.0;
        },
        "open-row hits per access, all channels");
}

} // namespace morph
