#include "dram/channel.hh"

#include <algorithm>
#include "common/check.hh"

namespace morph
{

Channel::Channel(const DramConfig &config)
    : config_(config),
      banks_(config.ranksPerChannel * config.banksPerRank),
      ranks_(config.ranksPerChannel),
      refreshesDone_(config.ranksPerChannel, 0)
{
    if (config.writeQueueing)
        writeQueue_.reserve(config.writeQueueHigh);
}

Cycle
Channel::afterRefresh(unsigned rank, Cycle when)
{
    if (!config_.refresh)
        return when;
    // Ranks refresh every tREFI, staggered across the interval; a
    // command landing inside a refresh window waits it out.
    const Cycle interval = config_.cpu(config_.tREFI);
    const Cycle blocked = config_.cpu(config_.tRFC);
    const Cycle offset =
        interval * rank / std::max(1u, config_.ranksPerChannel);
    const Cycle phase = (when + interval - offset) % interval;
    // Account refreshes that have elapsed up to `when` (power model).
    const std::uint64_t elapsed = (when + interval - offset) / interval;
    if (elapsed > refreshesDone_[rank]) {
        activity_.refreshes += elapsed - refreshesDone_[rank];
        refreshesDone_[rank] = elapsed;
    }
    if (phase < blocked)
        return when + (blocked - phase);
    return when;
}

void
Channel::drainWrites(Cycle when)
{
    ++activity_.writeDrains;
    // Issue the oldest writes in FIFO order, then drop them in one erase.
    std::size_t drained = 0;
    for (; writeQueue_.size() - drained > config_.writeQueueLow; ++drained)
        scheduleAccess(writeQueue_[drained], AccessType::Write, when);
    writeQueue_.erase(writeQueue_.begin(),
                      writeQueue_.begin() + std::ptrdiff_t(drained));
}

Cycle
Channel::RankWindow::readyFor(const DramConfig &config) const
{
    // tFAW: the new ACT must start after the 4th-most-recent ACT plus
    // the window; tRRD: after the most recent ACT plus tRRD. Neither
    // gate applies until enough activates have actually occurred.
    const Cycle faw_gate =
        actCount >= lastActs.size()
            ? lastActs[next] + config.cpu(config.tFAW)
            : 0;
    const Cycle rrd_gate =
        actCount >= 1 ? lastAct + config.cpu(config.tRRD) : 0;
    return std::max(faw_gate, rrd_gate);
}

void
Channel::RankWindow::record(Cycle act_at)
{
    lastActs[next] = act_at;
    next = unsigned((next + 1) % lastActs.size());
    lastAct = act_at;
    ++actCount;
}

Cycle
Channel::access(const DramCoord &coord, AccessType type, Cycle when,
                DramAccessTiming *timing)
{
    if (config_.writeQueueing && type == AccessType::Write) {
        // Posted write: buffered, bus-invisible until a drain.
        writeQueue_.push_back(coord);
        if (timing) {
            timing->submit = when;
            timing->burstStart = when;
            timing->complete = when;
            timing->queued = true;
        }
        if (writeQueue_.size() >= config_.writeQueueHigh)
            drainWrites(when);
        return when;
    }
    const Cycle done = scheduleAccess(coord, type, when, timing);
    return done;
}

Cycle
Channel::scheduleAccess(const DramCoord &coord, AccessType type,
                        Cycle when, DramAccessTiming *timing)
{
    MORPH_CHECK_LT(coord.rank, config_.ranksPerChannel);
    MORPH_CHECK_LT(coord.bank, config_.banksPerRank);
    when = afterRefresh(coord.rank, when);

    Bank &bank = banks_[coord.rank * config_.banksPerRank + coord.bank];
    RankWindow &rank = ranks_[coord.rank];
    const bool is_write = type == AccessType::Write;

    Cycle cas_ready, act_at;
    const RowOutcome outcome =
        bank.schedule(config_, coord.row, is_write, when,
                      rank.readyFor(config_), cas_ready, act_at);

    if (act_at != ~Cycle(0)) {
        rank.record(act_at);
        ++activity_.activates;
    }
    switch (outcome) {
      case RowOutcome::Hit:
        ++activity_.rowHits;
        break;
      case RowOutcome::Closed:
        ++activity_.rowClosed;
        break;
      case RowOutcome::Conflict:
        ++activity_.rowConflicts;
        break;
    }

    // Column access latency, then the burst must win the shared bus.
    const unsigned cas_latency = is_write ? config_.tCWL : config_.tCL;
    const Cycle data_ready = cas_ready + config_.cpu(cas_latency);
    const Cycle data_start = std::max(data_ready, busFreeAt_);
    busFreeAt_ = data_start + config_.cpu(config_.tBURST);
    activity_.busBusyCycles += config_.cpu(config_.tBURST);

    // The CAS actually issued CL before the data burst started.
    const Cycle cas_at = data_start - config_.cpu(cas_latency);
    bank.complete(config_, cas_at, data_start, is_write);
    if (is_write)
        ++activity_.writes;
    else
        ++activity_.reads;

    const Cycle done = data_start + config_.cpu(config_.tBURST);
    if (timing) {
        timing->submit = when;
        timing->burstStart = data_start;
        timing->complete = done;
        timing->queued = false;
    }
    return done;
}

} // namespace morph
