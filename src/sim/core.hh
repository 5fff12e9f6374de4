/**
 * @file
 * Trace-driven out-of-order core model (USIMM-style, paper Table I).
 *
 * Each core replays its post-LLC trace: non-memory instructions retire
 * at `retireWidth` per CPU cycle; reads are issued to the secure
 * memory system and occupy the reorder buffer until their data
 * returns. An access enters the ROB only once it lies fewer than
 * `robSize` instructions past the oldest incomplete read; until then
 * the core stalls for that read (in-order retirement through a
 * `robSize`-entry ROB, 192 by default). Write-backs are posted and
 * never block. The core does not read its trace itself: SimSystem pops
 * each entry from the core's ring of the trace feed (trace_feed.hh)
 * and hands it to beginEntry().
 */

#ifndef MORPH_SIM_CORE_HH
#define MORPH_SIM_CORE_HH

#include <algorithm>
#include <vector>

#include "common/check.hh"
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
    Core(unsigned id, const CoreConfig &config)
        : id_(id), config_(config)
    {}

    /** Account the instruction gap of @p entry, this core's next
     *  trace entry; the caller issues the access and reports back. */
    void
    beginEntry(const TraceEntry &entry)
    {
        // The gap instructions retire at full width. (In 64 bits: a
        // trace file's gap may be 2^32 - 1.)
        const std::uint64_t gap = entry.gap;
        clock_ += (gap + config_.retireWidth - 1) / config_.retireWidth;
        instructions_ += gap + 1;
        // The ROB admits this access only once it is within robSize
        // instructions of the oldest incomplete read.
        if (instructions_ > config_.robSize)
            retireUpTo(instructions_ - config_.robSize);
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
        // Writes are posted: the write queue absorbs them. A read done
        // by now takes no ROB slot: the clock never falls, so retiring
        // it could not raise the clock, and positions only grow, so it
        // holds back no later read. Untimed reads all end here.
        if (entry.type != AccessType::Read || done <= clock_)
            return;
        if (count_ == ring_.size())
            grow();
        ring_[(head_ + count_) & (ring_.size() - 1)] = {instructions_,
                                                        done};
        ++count_;
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
        while (count_ != 0 && ring_[head_].position <= window_floor) {
            clock_ = std::max(clock_, ring_[head_].done);
            head_ = (head_ + 1) & (ring_.size() - 1);
            --count_;
        }
    }

    /** Double the full ring (16 slots on first use), oldest read
     *  first. It runs a few times per core at most. */
    [[gnu::noinline]] void
    grow()
    {
        const std::size_t bound = std::max(config_.robSize, 1u);
        MORPH_CHECK_LT(count_, bound);
        std::vector<Outstanding> bigger(ring_.empty() ? 16
                                                      : 2 * ring_.size());
        for (std::size_t k = 0; k < count_; ++k)
            bigger[k] = ring_[(head_ + k) & (ring_.size() - 1)];
        ring_.swap(bigger);
        head_ = 0;
    }

    unsigned id_;
    CoreConfig config_;

    Cycle clock_ = 0;
    std::uint64_t instructions_ = 0;
    std::uint64_t accesses_ = 0;
    Cycle baseClock_ = 0;
    std::uint64_t baseInstructions_ = 0;
    std::uint64_t baseAccesses_ = 0;

    /** An incomplete read. */
    struct Outstanding
    {
        std::uint64_t position; ///< instructions_ at the read
        Cycle done;             ///< completion cycle
    };

    /**
     * Reads still incomplete when issued, oldest first: count_ slots
     * from head_ of a power-of-two ring, allocated on the first such
     * read (an untimed run never allocates it). Each entry
     * advances instructions_ by at least 1, so after beginEntry
     * retires every read at or below instructions_ - robSize, the
     * survivors hold distinct positions in the last robSize - 1
     * instructions: with the new read, at most max(robSize, 1) slots
     * are ever in use, and the ring never grows past twice that.
     */
    std::vector<Outstanding> ring_;
    std::size_t head_ = 0;
    std::size_t count_ = 0;
};

} // namespace morph

#endif // MORPH_SIM_CORE_HH
