/**
 * @file
 * High-level experiment runner: one call per (workload, tree config).
 *
 * Wraps trace construction, warm-up (the paper warms counters before
 * measuring), measurement, and result collection. Benchmark harnesses
 * in bench/ call these entry points for every bar of every figure.
 *
 * Scale knobs (paper: 25 B warm-up + 5 B measured instructions; here
 * the unit is per-core memory accesses) can be overridden with the
 * MORPH_SIM_ACCESSES / MORPH_SIM_WARMUP environment variables to
 * trade fidelity for runtime.
 */

#ifndef MORPH_SIM_SIMULATOR_HH
#define MORPH_SIM_SIMULATOR_HH

#include <optional>
#include <string>

#include "common/parse.hh"
#include "dram/dram_config.hh"
#include "sim/energy.hh"
#include "sim/system.hh"
#include "workloads/workload_db.hh"

namespace morph
{

/** Environment variable @p name as a count >= @p min: nullopt when
 *  unset; anything else throws std::invalid_argument naming it. */
std::optional<std::uint64_t> envCount(const char *name,
                                      std::uint64_t min);

/** Environment variable @p name as a positive finite number >= @p min:
 *  nullopt when unset; anything else throws std::invalid_argument
 *  naming it. */
std::optional<double> envNumber(const char *name, double min);

/** Scale and seed of one simulation. */
struct SimOptions
{
    std::uint64_t accessesPerCore = 150'000;
    std::uint64_t warmupPerCore = 75'000;
    std::uint64_t seed = 1;
    bool timing = true; ///< false = traffic/overflow statistics only

    /** Footprint divisor (overflow experiments; see
     *  makeWorkloadTrace). */
    double footprintScale = 1.0;

    /** DRAM organization/timing (refresh and write-queueing live
     *  here; see docs/SIMULATOR.md). */
    DramConfig dram;

    /** Apply MORPH_SIM_ACCESSES (>= 1) / MORPH_SIM_WARMUP (>= 0)
     *  overrides; a malformed value throws std::invalid_argument
     *  naming the variable (see envCount). */
    static SimOptions fromEnv(SimOptions defaults);

    /** Defaults plus environment overrides. */
    static SimOptions fromEnv() { return fromEnv(SimOptions{}); }

    bool operator==(const SimOptions &) const = default;
};

/** Results of one measured simulation. */
struct SimResult
{
    std::string workload;
    std::string configName;
    double ipc = 0;               ///< aggregate (sum of per-core) IPC
    std::uint64_t cycles = 0;     ///< measured execution cycles
    std::uint64_t instructions = 0;
    TrafficStats traffic;
    CacheStats metadataCache;
    ChannelActivity dram;
    EnergyReport energy;
    PersistStats persist; ///< zeros unless the persist domain is on

    /** NVM line-persists per data write (strict-vs-lazy cost axis);
     *  0 when the persist domain is off or nothing was written. */
    double persistsPerWrite() const;

    /** Overflow events per million data accesses. */
    double overflowsPerMillion() const;

    /** Memory accesses per data access (Figs 5b / 16). */
    double bloat() const { return traffic.bloat(); }
};

/**
 * Simulate a workload or mix by name (rate mode: all cores run copies
 * of a workload; fatal if the name is unknown).
 *
 * When @p scope is non-null, every component's statistics register
 * into its registry, the measured window is sampled into its epoch
 * series (ScopeConfig::epochAccesses), sampled accesses trace into
 * its trace log, and the registry is frozen before return — the scope
 * is safe to export after the call.
 */
SimResult runByName(const std::string &name,
                    const SecureModelConfig &secmem,
                    const SimOptions &options,
                    MorphScope *scope = nullptr);

/** All 28 evaluation targets: 16 SPEC + 6 mixes + 6 GAP, the paper's
 *  Fig 15 x-axis order. */
std::vector<std::string> evaluationWorkloads();

/** Geometric mean of a list of positive values. */
double geomean(const std::vector<double> &values);

} // namespace morph

#endif // MORPH_SIM_SIMULATOR_HH
