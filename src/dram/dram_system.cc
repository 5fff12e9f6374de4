#include "dram/dram_system.hh"

#include <algorithm>

#include "common/check.hh"
#include "common/stat_registry.hh"

namespace morph
{

Channel::Timing::Timing(const DramConfig &config)
    : ranks(config.ranksPerChannel), banksPerRank(config.banksPerRank),
      refresh(config.refresh), writeQueueing(config.writeQueueing),
      writeQueueHigh(config.writeQueueHigh),
      writeQueueLow(config.writeQueueLow), tCL(config.cpu(config.tCL)),
      tCWL(config.cpu(config.tCWL)), tRCD(config.cpu(config.tRCD)),
      tRP(config.cpu(config.tRP)), tRAS(config.cpu(config.tRAS)),
      tBURST(config.cpu(config.tBURST)), tCCD(config.cpu(config.tCCD)),
      tWR(config.cpu(config.tWR)), tRRD(config.cpu(config.tRRD)),
      tFAW(config.cpu(config.tFAW)), tREFI(config.cpu(config.tREFI)),
      tRFC(config.cpu(config.tRFC))
{}

Channel::Channel(const DramConfig &config)
    : t_(config), banks_(config.ranksPerChannel * config.banksPerRank),
      ranks_(config.ranksPerChannel),
      refreshesDone_(config.ranksPerChannel, 0)
{
    if (config.writeQueueing)
        writeQueue_.reserve(config.writeQueueHigh);
}

Cycle
Channel::afterRefresh(unsigned rank, Cycle when)
{
    // Ranks refresh every tREFI, staggered across the interval; a
    // command landing inside a refresh window waits it out.
    const Cycle interval = t_.tREFI;
    const Cycle offset = interval * rank / std::max(1u, t_.ranks);
    const Cycle phase = (when + interval - offset) % interval;
    // Account refreshes that have elapsed up to `when` (power model).
    const std::uint64_t elapsed = (when + interval - offset) / interval;
    if (elapsed > refreshesDone_[rank]) {
        activity_.refreshes += elapsed - refreshesDone_[rank];
        refreshesDone_[rank] = elapsed;
    }
    if (phase < t_.tRFC)
        return when + (t_.tRFC - phase);
    return when;
}

void
Channel::drainWrites(Cycle when)
{
    ++activity_.writeDrains;
    // Issue the oldest writes in FIFO order, then drop them in one erase.
    std::size_t drained = 0;
    for (; writeQueue_.size() - drained > t_.writeQueueLow; ++drained)
        scheduleAccess(writeQueue_[drained], AccessType::Write, when);
    writeQueue_.erase(writeQueue_.begin(),
                      writeQueue_.begin() + std::ptrdiff_t(drained));
}

Cycle
Channel::postWrite(const DramCoord &coord, Cycle when,
                   DramAccessTiming *timing)
{
    // Posted write: buffered, bus-invisible until a drain.
    writeQueue_.push_back(coord);
    if (timing) {
        timing->submit = when;
        timing->burstStart = when;
        timing->complete = when;
        timing->queued = true;
    }
    if (writeQueue_.size() >= t_.writeQueueHigh)
        drainWrites(when);
    return when;
}

DramSystem::DramSystem(const DramConfig &config)
    : config_(config), decoder_(config)
{
    channels_.reserve(config_.channels);
    for (unsigned c = 0; c < config_.channels; ++c)
        channels_.emplace_back(config_);
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
