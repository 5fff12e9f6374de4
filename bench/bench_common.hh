/**
 * @file
 * Shared plumbing for the paper's figures and ablations.
 *
 * Each bench/figNN_* and bench/abl_* file defines one Figure: the
 * cells (RunConfigs) its table needs and a view that prints the table
 * from their results. The `paper` driver (bench/paper.cc) runs the
 * distinct cells of every requested figure once and hands each view
 * its results. Scales are sized so the full sweep completes in
 * minutes; MORPH_SIM_ACCESSES / MORPH_SIM_WARMUP / MORPH_SIM_SCALE
 * raise fidelity when you have the time.
 *
 * Two preset scales:
 *  - perfOptions(): timed runs for the IPC/traffic/energy figures.
 *    Footprints divided by 8 so counters reach steady state while
 *    metadata still dwarfs the 128 KB cache.
 *  - overflowOptions(): traffic-only runs for the overflow-rate
 *    figures. Footprints divided by 32 to reach counter steady state
 *    within the access budget (the paper instead warms counters for
 *    25 B instructions).
 */

#ifndef MORPH_BENCH_BENCH_COMMON_HH
#define MORPH_BENCH_BENCH_COMMON_HH

#include <cstdio>
#include <cstdlib>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/log.hh"
#include "sim/run_config.hh"

namespace morph
{
namespace bench
{

/** Run @p read, turning a malformed environment value into fatal(). */
template <typename Read>
inline auto
strictEnv(Read read)
{
    try {
        return read();
    } catch (const std::invalid_argument &e) {
        fatal("%s", e.what());
    }
}

/** MORPH_SIM_SCALE when set (a number >= 1), else @p fallback. */
inline double
envScale(double fallback)
{
    return strictEnv([] { return envNumber("MORPH_SIM_SCALE", 1.0); })
        .value_or(fallback);
}

/** Defaults plus the MORPH_SIM_ACCESSES / MORPH_SIM_WARMUP
 *  overrides. */
inline SimOptions
envOptions(const SimOptions &defaults)
{
    return strictEnv([&] { return SimOptions::fromEnv(defaults); });
}

/** Timed-simulation preset (Figs 5, 15, 16, 18, 19, 20). */
inline SimOptions
perfOptions()
{
    SimOptions options;
    options.accessesPerCore = 400'000;
    options.warmupPerCore = 200'000;
    options.timing = true;
    options.footprintScale = envScale(8.0);
    return envOptions(options);
}

/** Traffic-only preset (Figs 7, 11, 14). */
inline SimOptions
overflowOptions()
{
    SimOptions options;
    options.accessesPerCore = 1'000'000;
    options.warmupPerCore = 500'000;
    options.timing = false;
    options.footprintScale = envScale(32.0);
    return envOptions(options);
}

/** Secure-memory configuration for a tree config at paper defaults. */
inline SecureModelConfig
modelConfig(TreeConfig tree)
{
    SecureModelConfig config;
    config.tree = std::move(tree);
    return config;
}

/** One cell of a figure's grid: @p workload on @p secmem at
 *  @p options, named by its tree config. */
inline RunConfig
cell(const std::string &workload, const SecureModelConfig &secmem,
     const SimOptions &options)
{
    RunConfig config;
    config.workload = workload;
    config.configName = secmem.tree.name;
    config.secmem = secmem;
    config.options = options;
    return config;
}

/** Every evaluation workload on each of @p configs at @p options,
 *  workload-major: the grid most figures print row by row. */
inline std::vector<RunConfig>
workloadGrid(const std::vector<SecureModelConfig> &configs,
             const SimOptions &options)
{
    std::vector<RunConfig> cells;
    for (const std::string &name : evaluationWorkloads())
        for (const SecureModelConfig &config : configs)
            cells.push_back(cell(name, config, options));
    return cells;
}

/** The grid Figs 15, 16 and 18 share: VAULT, SC-64 and MorphCtr-128
 *  at perfOptions(). */
inline std::vector<RunConfig>
performanceCells()
{
    return workloadGrid({modelConfig(TreeConfig::vault()),
                         modelConfig(TreeConfig::sc64()),
                         modelConfig(TreeConfig::morph())},
                        perfOptions());
}

/**
 * One table or figure of the paper. `cells` lists the runs it needs
 * (nullptr if it needs none); `view` prints the table from their
 * results, in `cells` order. Each run owns its whole simulated
 * system and seeds from its SimOptions, so a view's output does not
 * depend on which other figures ran or on the worker count.
 */
struct Figure
{
    const char *name; ///< the `paper` command-line name
    std::vector<RunConfig> (*cells)();
    void (*view)(const std::vector<SimResult> &results);
};

/** Print the standard figure header. */
inline void
banner(const char *figure, const char *caption)
{
    std::printf("==================================================="
                "=========================\n");
    std::printf("%s — %s\n", figure, caption);
    std::printf("===================================================="
                "========================\n");
}

} // namespace bench
} // namespace morph

#endif // MORPH_BENCH_BENCH_COMMON_HH
