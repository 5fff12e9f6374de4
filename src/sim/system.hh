/**
 * @file
 * The simulated system: cores + secure memory controller + DRAM.
 *
 * Cores are interleaved in local-time order, so bank and bus
 * contention between cores is modelled. Tie rule: the live core with
 * the earliest local clock runs its next trace entry first, and of
 * cores with equal clocks the lowest-numbered one does; a core whose
 * run() target is met no longer runs. In traffic-only mode (no
 * timing) each core runs its whole share in turn, core 0 first. Every data access expands through the
 * SecureMemoryModel into its metadata/overflow accesses, all of which
 * are scheduled on the DRAM system; reads complete for the core when
 * their critical accesses (data + counter-fetch walk) finish. Each
 * core's trace entries come from the system's trace feed, generated
 * ahead on the feed's producer thread (trace_feed.hh), which the
 * first run() starts and the destructor joins.
 */

#ifndef MORPH_SIM_SYSTEM_HH
#define MORPH_SIM_SYSTEM_HH

#include <memory>
#include <vector>

#include "dram/dram_system.hh"
#include "secmem/secure_memory_model.hh"
#include "sim/core.hh"
#include "sim/morphscope.hh"
#include "sim/trace_feed.hh"

namespace morph
{

/** Full-system configuration. */
struct SystemConfig
{
    unsigned numCores = 4;
    CoreConfig core;
    SecureModelConfig secmem;
    DramConfig dram;

    /** If false, DRAM timing is skipped: traces stream through the
     *  controller for traffic/overflow statistics only (used by the
     *  overflow-rate experiments, ~10x faster). */
    bool timing = true;
};

/** A 4-core secure system executing per-core traces. */
class SimSystem
{
  public:
    /**
     * @param config system parameters
     * @param traces one trace per core (size must equal numCores)
     */
    SimSystem(const SystemConfig &config,
              std::vector<std::unique_ptr<TraceSource>> traces);

    /** Run until every core has performed @p accesses_per_core
     *  accesses beyond its current position. The first call starts
     *  the trace feed. Whether the steps record their profiler scopes
     *  (sim.step, with secmem.data_access and dram.access in it) is
     *  decided once, when the call starts. */
    void run(std::uint64_t accesses_per_core);

    /** End warm-up: zero statistics, snapshot per-core baselines. */
    void startMeasurement();

    /** End of run: drain the persist domain's pending mutations so
     *  persist-traffic counts are complete (no-op without
     *  persistence). Call before the final statistics sample. */
    void finishRun() { secmem_.finishRun(); }

    /**
     * Attach a morphscope observability context: registers every
     * component's statistics (sim.*, coreN.*, traffic.*, mdcache.*,
     * dram.*, latency.*) into its registry, names its trace tracks,
     * and — when tracing is enabled — emits lifecycle spans for
     * 1-in-N measured data accesses. The scope must outlive this
     * system (or the registry be frozen before destruction).
     */
    void attachScope(MorphScope *scope);

    /** Sum of per-core IPCs over the measured interval. */
    double aggregateIpc() const;

    /** Longest measured per-core cycle count (execution time). */
    Cycle measuredCycles() const;

    /** Total measured instructions across cores. */
    std::uint64_t measuredInstructions() const;

    SecureMemoryModel &secmem() { return secmem_; }
    const SecureMemoryModel &secmem() const { return secmem_; }
    DramSystem &dram() { return dram_; }
    const DramSystem &dram() const { return dram_; }
    const SystemConfig &config() const { return config_; }
    const Core &core(unsigned i) const { return cores_[i]; }

  private:
    template <bool Profiled>
    void runCores(const std::vector<std::uint64_t> &targets);
    template <bool Profiled>
    void step(Core &core);
    bool takeTraceSample();
    void traceDramAccess(const Core &core, const MemAccess &access,
                         const DramAccessTiming &timing);
    void traceEntryDone(const Core &core, const TraceEntry &entry,
                        Cycle start, Cycle done);

    /** Trace tracks 16+ belong to DRAM channels (0..15 to cores). */
    static constexpr std::uint32_t channelTidBase = 16;

    SystemConfig config_;
    std::vector<std::unique_ptr<TraceSource>> traces_;
    TraceFeed feed_; ///< borrows traces_: declared after it, dies first
    std::vector<Core> cores_;
    SecureMemoryModel secmem_;
    DramSystem dram_;
    std::vector<MemAccess> scratch_;

    MorphScope *scope_ = nullptr;
    bool measuring_ = false;
    std::uint64_t traceTick_ = 0;
    ExpHistogram readLatency_; ///< end-to-end read latency, cycles
};

} // namespace morph

#endif // MORPH_SIM_SYSTEM_HH
