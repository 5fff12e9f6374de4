/**
 * @file
 * Trace-driven out-of-order core model (USIMM-style, paper Table I).
 *
 * Each core replays its post-LLC trace: non-memory instructions retire
 * at `retireWidth` per CPU cycle; reads are issued to the secure
 * memory system and occupy the reorder buffer until their data
 * returns; the core may run ahead at most `robSize` instructions past
 * the oldest incomplete read (in-order retirement through a 192-entry
 * ROB). Write-backs are posted and never block.
 */

#ifndef MORPH_SIM_CORE_HH
#define MORPH_SIM_CORE_HH

#include <algorithm>
#include <deque>

#include "common/types.hh"
#include "workloads/trace.hh"

namespace morph
{

/** Core microarchitecture parameters. */
struct CoreConfig
{
    unsigned robSize = 192;
    unsigned retireWidth = 4; ///< instructions per CPU cycle
};

/** One trace-driven core. */
class Core
{
  public:
    Core(unsigned id, TraceSource &trace, const CoreConfig &config)
        : id_(id), trace_(&trace), config_(config)
    {}

    /** Fetch the next trace entry and account its instruction gap;
     *  the caller issues the access and reports back. */
    TraceEntry
    beginEntry()
    {
        const TraceEntry entry = trace_->next();
        // The gap instructions retire at full width.
        clock_ += (entry.gap + config_.retireWidth - 1) /
                  config_.retireWidth;
        instructions_ += entry.gap + 1;
        // The ROB admits this access only once it is within robSize
        // instructions of the oldest incomplete read.
        if (instructions_ > config_.robSize)
            retireUpTo(instructions_ - config_.robSize);
        return entry;
    }

    /**
     * Finish the entry: for reads, record the outstanding miss with
     * completion cycle @p done; stalls are applied when the ROB window
     * fills.
     */
    void
    completeEntry(const TraceEntry &entry, Cycle done)
    {
        ++accesses_;
        if (entry.type == AccessType::Read)
            outstanding_.emplace_back(instructions_, done);
        // Writes are posted: the write queue absorbs them.
    }

    /** Core-local clock (CPU cycles). */
    Cycle clock() const { return clock_; }

    /** Instructions issued so far. */
    std::uint64_t instructions() const { return instructions_; }

    /** Data accesses performed. */
    std::uint64_t accesses() const { return accesses_; }

    /** Drain all outstanding reads (advances the clock). */
    void drain() { retireUpTo(~std::uint64_t(0)); }

    /** Snapshot baseline at the end of warm-up. */
    void
    markMeasurementStart()
    {
        baseClock_ = clock_;
        baseInstructions_ = instructions_;
        baseAccesses_ = accesses_;
    }

    /** Instructions since the measurement baseline. */
    std::uint64_t measuredInstructions() const
    {
        return instructions_ - baseInstructions_;
    }

    /** Data accesses since the measurement baseline. */
    std::uint64_t measuredAccesses() const
    {
        return accesses_ - baseAccesses_;
    }

    /** Cycles since the measurement baseline. */
    Cycle measuredCycles() const { return clock_ - baseClock_; }

    unsigned id() const { return id_; }

  private:
    void
    retireUpTo(std::uint64_t window_floor)
    {
        while (!outstanding_.empty() &&
               outstanding_.front().first <= window_floor) {
            clock_ = std::max(clock_, outstanding_.front().second);
            outstanding_.pop_front();
        }
    }

    unsigned id_;
    TraceSource *trace_;
    CoreConfig config_;

    Cycle clock_ = 0;
    std::uint64_t instructions_ = 0;
    std::uint64_t accesses_ = 0;
    Cycle baseClock_ = 0;
    std::uint64_t baseInstructions_ = 0;
    std::uint64_t baseAccesses_ = 0;

    /** Outstanding reads: (instruction position, completion cycle). */
    std::deque<std::pair<std::uint64_t, Cycle>> outstanding_;
};

} // namespace morph

#endif // MORPH_SIM_CORE_HH
