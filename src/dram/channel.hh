/**
 * @file
 * DRAM channel: banks, the shared data bus, and rank ACT windows.
 *
 * Requests are scheduled in arrival order (FCFS) against bank and bus
 * resources: bank preparation (PRE/ACT/CAS) proceeds in parallel
 * across banks, while data bursts serialize on the channel's data
 * bus. Rank-level tRRD and tFAW constraints gate activates. This
 * captures the two effects the paper's evaluation hinges on — row
 * locality and bandwidth saturation under metadata traffic bloat —
 * while staying simple enough to schedule each access in O(1).
 *
 * Each bank tracks its open row and the earliest CPU cycle at which a
 * new column command may begin. An access classifies as a row-buffer
 * hit (CAS only), a closed-row access (ACT + CAS) or a row conflict
 * (PRE + ACT + CAS); the paper's streaming-vs-random workload split
 * maps directly onto these classes.
 *
 * The per-request path is defined here and forced inline (GCC's
 * heuristics keep it out of line otherwise), so DramSystem::access,
 * itself inline, compiles into its caller as one body; set-up, refresh
 * and the write queue live in dram_system.cc.
 */

#ifndef MORPH_DRAM_CHANNEL_HH
#define MORPH_DRAM_CHANNEL_HH

#include <algorithm>
#include <array>
#include <vector>

#include "common/check.hh"
#include "dram/dram_config.hh"

namespace morph
{

/**
 * Timing detail of one scheduled access (request-lifecycle tracing).
 *
 * For a normally scheduled access, submit <= burstStart < complete:
 * [submit, burstStart) is queueing plus bank preparation, [burstStart,
 * complete) the data burst on the shared bus. A posted write under
 * write-queueing reports queued = true with all three equal to the
 * submit cycle (its bus activity happens later, at drain time).
 */
struct DramAccessTiming
{
    Cycle submit = 0;     ///< cycle the request entered the channel
    Cycle burstStart = 0; ///< cycle the data burst won the bus
    Cycle complete = 0;   ///< cycle the burst finished
    unsigned channel = 0; ///< owning channel index
    bool queued = false;  ///< buffered posted write, not yet issued
};

/** Per-channel activity counters (power model inputs). */
struct ChannelActivity
{
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t activates = 0;
    std::uint64_t refreshes = 0;
    std::uint64_t rowHits = 0;
    std::uint64_t rowClosed = 0;
    std::uint64_t rowConflicts = 0;
    std::uint64_t writeDrains = 0; ///< write-queue drain episodes
    Cycle busBusyCycles = 0; ///< CPU cycles of data-bus occupancy
};

/** One memory channel with its ranks and banks. */
class Channel
{
  public:
    explicit Channel(const DramConfig &config);

    /**
     * Schedule one line access submitted at CPU cycle @p when.
     *
     * @param timing optional out-param filled with the access's
     *               lifecycle cycles (tracing; never affects timing)
     * @return the CPU cycle at which the data burst completes
     */
    [[gnu::always_inline]] Cycle
    access(const DramCoord &coord, AccessType type, Cycle when,
           DramAccessTiming *timing = nullptr)
    {
        if (t_.writeQueueing && type == AccessType::Write)
            return postWrite(coord, when, timing);
        return scheduleAccess(coord, type, when, timing);
    }

    const ChannelActivity &activity() const { return activity_; }
    void resetActivity() { activity_ = ChannelActivity{}; }

    /** Earliest cycle the data bus is free (introspection/tests). */
    Cycle busFreeAt() const { return busFreeAt_; }

  private:
    /**
     * The DramConfig fields a channel reads, timings converted to CPU
     * cycles once. Owned by value: a copied channel (or DramSystem)
     * never refers back to its source.
     */
    struct Timing
    {
        explicit Timing(const DramConfig &config);

        unsigned ranks, banksPerRank;
        bool refresh, writeQueueing;
        unsigned writeQueueHigh, writeQueueLow;
        Cycle tCL, tCWL, tRCD, tRP, tRAS, tBURST, tCCD, tWR, tRRD, tFAW,
            tREFI, tRFC;
    };

    /** One bank's row buffer and availability. */
    struct Bank
    {
        bool rowOpen = false;
        std::uint64_t openRow = 0;
        Cycle readyAt = 0;     ///< earliest next command sequence
        Cycle activatedAt = 0; ///< last ACT (for tRAS)
    };

    /** Rank ACT-window bookkeeping for tRRD / tFAW. */
    struct RankWindow
    {
        std::array<Cycle, 4> lastActs{}; ///< rolling, oldest replaced
        unsigned next = 0;
        std::uint64_t actCount = 0;
        Cycle lastAct = 0;

        Cycle
        readyFor(const Timing &t) const
        {
            // tFAW: the new ACT must start after the 4th-most-recent
            // ACT plus the window; tRRD: after the most recent ACT
            // plus tRRD. Neither gate applies until enough activates
            // have actually occurred.
            const Cycle faw_gate =
                actCount >= lastActs.size() ? lastActs[next] + t.tFAW : 0;
            const Cycle rrd_gate = actCount >= 1 ? lastAct + t.tRRD : 0;
            return std::max(faw_gate, rrd_gate);
        }

        void
        record(Cycle act_at)
        {
            lastActs[next] = act_at;
            next = unsigned((next + 1) % lastActs.size());
            lastAct = act_at;
            ++actCount;
        }
    };

    /** Schedule one access against bank/bus resources (no queuing). */
    [[gnu::always_inline]] Cycle
    scheduleAccess(const DramCoord &coord, AccessType type, Cycle when,
                   DramAccessTiming *timing = nullptr);

    /** Earliest start for @p rank at @p when with refresh enabled. */
    Cycle afterRefresh(unsigned rank, Cycle when);

    /** Buffer a posted write, draining the queue at the high mark. */
    Cycle postWrite(const DramCoord &coord, Cycle when,
                    DramAccessTiming *timing);

    /** Drain buffered writes down to the low watermark. */
    void drainWrites(Cycle when);

    Timing t_;
    std::vector<Bank> banks_;       ///< ranksPerChannel * banksPerRank
    std::vector<RankWindow> ranks_;
    std::vector<DramCoord> writeQueue_;
    std::vector<std::uint64_t> refreshesDone_; ///< per rank
    Cycle busFreeAt_ = 0;
    ChannelActivity activity_;
};

inline Cycle
Channel::scheduleAccess(const DramCoord &coord, AccessType type,
                        Cycle when, DramAccessTiming *timing)
{
    MORPH_CHECK_LT(coord.rank, t_.ranks);
    MORPH_CHECK_LT(coord.bank, t_.banksPerRank);
    if (t_.refresh)
        when = afterRefresh(coord.rank, when);

    Bank &bank = banks_[coord.rank * t_.banksPerRank + coord.bank];
    const bool is_write = type == AccessType::Write;

    // Bank preparation: a row hit issues its CAS as soon as the bank
    // is ready; otherwise an ACT (gated by the rank's tRRD/tFAW
    // window) opens the row, after a precharge that honours tRAS
    // since the last ACT if another row was open.
    Cycle start = std::max(when, bank.readyAt);
    Cycle cas_ready = start;
    if (bank.rowOpen && bank.openRow == coord.row) {
        ++activity_.rowHits;
    } else {
        if (bank.rowOpen) {
            ++activity_.rowConflicts;
            start = std::max(start, bank.activatedAt + t_.tRAS) + t_.tRP;
        } else {
            ++activity_.rowClosed;
        }
        RankWindow &rank = ranks_[coord.rank];
        const Cycle act = std::max(start, rank.readyFor(t_));
        bank.activatedAt = act;
        bank.rowOpen = true;
        bank.openRow = coord.row;
        rank.record(act);
        ++activity_.activates;
        cas_ready = act + t_.tRCD;
    }

    // Column access latency, then the burst must win the shared bus.
    const Cycle cas_latency = is_write ? t_.tCWL : t_.tCL;
    const Cycle data_start = std::max(cas_ready + cas_latency, busFreeAt_);
    const Cycle done = data_start + t_.tBURST;
    busFreeAt_ = done;
    activity_.busBusyCycles += t_.tBURST;

    if (is_write) {
        // Write recovery: the bank is busy until tWR past the burst.
        bank.readyAt = done + t_.tWR;
        ++activity_.writes;
    } else {
        // Reads pipeline: the next CAS may issue tCCD after this one,
        // which actually issued CL before the data burst started, so
        // back-to-back row hits stream at burst rate. tRTP before a
        // precharge is folded into the conservative tRAS gate above.
        bank.readyAt = data_start - cas_latency + t_.tCCD;
        ++activity_.reads;
    }

    if (timing) {
        timing->submit = when;
        timing->burstStart = data_start;
        timing->complete = done;
        timing->queued = false;
    }
    return done;
}

} // namespace morph

#endif // MORPH_DRAM_CHANNEL_HH
