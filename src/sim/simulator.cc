#include "sim/simulator.hh"

#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

#include "common/check.hh"
#include "common/log.hh"
#include "common/prof.hh"
#include "sim/run_config.hh"
#include "workloads/trace_file.hh"

namespace morph
{

std::optional<std::uint64_t>
envCount(const char *name, std::uint64_t min)
{
    const char *env = std::getenv(name);
    if (env == nullptr)
        return std::nullopt;
    const std::optional<std::uint64_t> v = parseCount(env);
    if (!v || *v < min)
        throw std::invalid_argument(
            std::string(name) + " must be an integer >= " +
            std::to_string(min) + " (got '" + env + "')");
    return v;
}

std::optional<double>
envNumber(const char *name, double min)
{
    const char *env = std::getenv(name);
    if (env == nullptr)
        return std::nullopt;
    const std::optional<double> v = parsePositive(env);
    if (!v || *v < min) {
        char bound[32];
        std::snprintf(bound, sizeof(bound), "%g", min);
        throw std::invalid_argument(std::string(name) +
                                    " must be a finite number >= " +
                                    bound + " (got '" + env + "')");
    }
    return v;
}

SimOptions
SimOptions::fromEnv(SimOptions defaults)
{
    if (const auto v = envCount("MORPH_SIM_ACCESSES", 1))
        defaults.accessesPerCore = *v;
    if (const auto v = envCount("MORPH_SIM_WARMUP", 0))
        defaults.warmupPerCore = *v;
    return defaults;
}

double
SimResult::overflowsPerMillion() const
{
    const std::uint64_t data = traffic.accesses(Traffic::Data);
    if (data == 0)
        return 0.0;
    return double(traffic.totalOverflows()) * 1e6 / double(data);
}

double
SimResult::persistsPerWrite() const
{
    const std::uint64_t writes = traffic.writes[unsigned(Traffic::Data)];
    if (writes == 0)
        return 0.0;
    return double(persist.linePersists) / double(writes);
}

namespace
{

SimResult
runTraces(const std::string &name,
          std::vector<std::unique_ptr<TraceSource>> traces,
          const SecureModelConfig &secmem, const SimOptions &options,
          MorphScope *scope)
{
    SystemConfig config;
    config.secmem = secmem;
    config.dram = options.dram;
    config.timing = options.timing;
    config.numCores = unsigned(traces.size());

    SimSystem system(config, std::move(traces));
    system.attachScope(scope);

    if (options.warmupPerCore > 0) {
        MORPH_PROF_SCOPE("sim.warmup");
        system.run(options.warmupPerCore);
    }
    system.startMeasurement();

    {
        MORPH_PROF_SCOPE("sim.measure");
        const std::uint64_t epoch =
            scope ? scope->config().epochAccesses : 0;
        if (epoch > 0) {
            // Epoch-sampled measurement: run in epoch-sized chunks
            // and record counter deltas after each, so per-epoch
            // deltas sum exactly to the run totals (the final chunk
            // may be short).
            scope->epochs().baseline(scope->registry());
            std::uint64_t remaining = options.accessesPerCore;
            while (remaining > 0) {
                const std::uint64_t chunk = std::min(epoch, remaining);
                system.run(chunk);
                remaining -= chunk;
                // Drain the persist domain before the last sample so
                // the final barrier's persists land inside the series
                // (per-epoch deltas must sum exactly to the totals).
                if (remaining == 0)
                    system.finishRun();
                scope->epochs().sample(scope->registry(), chunk);
            }
        } else {
            system.run(options.accessesPerCore);
            system.finishRun();
        }
    }

    SimResult result;
    result.workload = name;
    result.configName = secmem.tree.name;
    result.ipc = system.aggregateIpc();
    result.cycles = system.measuredCycles();
    result.instructions = system.measuredInstructions();
    result.traffic = system.secmem().stats();
    result.metadataCache = system.secmem().metadataCache().stats();
    result.dram = system.dram().totalActivity();
    if (const PersistDomain *domain = system.secmem().persistDomain())
        result.persist = domain->stats();

    EnergyParams energy_params;
    const DramConfig &dram = config.dram;
    result.energy = computeEnergy(
        energy_params, result.dram, result.cycles, dram.cpuFreqHz,
        dram.channels * dram.ranksPerChannel);

    if (scope) {
        // Post-run scalars: registered after the epoch baseline, so
        // they appear in the totals but not in the time series.
        StatRegistry &reg = scope->registry();
        reg.scalar("energy.exec_seconds", result.energy.seconds,
                   "measured execution time");
        reg.scalar("energy.dram_joules", result.energy.dramJ,
                   "DRAM energy over the measured interval");
        reg.scalar("energy.system_joules", result.energy.systemJ,
                   "system energy over the measured interval");
        reg.scalar("energy.system_watts", result.energy.systemPowerW,
                   "average system power");
        reg.scalar("energy.edp", result.energy.edp,
                   "energy-delay product");

        scope->meta.set("workload", name);
        scope->meta.set("config", secmem.tree.name);
        scope->meta.set("accesses_per_core",
                        std::to_string(options.accessesPerCore));
        scope->meta.set("warmup_per_core",
                        std::to_string(options.warmupPerCore));
        scope->meta.set("seed", std::to_string(options.seed));
        scope->meta.set("timing", options.timing ? "true" : "false");

        // The registry points into `system`, which dies with this
        // frame; materialize every value so the scope outlives it.
        reg.freeze();
    }
    return result;
}

constexpr unsigned numCores = 4;

} // namespace

SimResult
runByName(const std::string &name, const SecureModelConfig &secmem,
          const SimOptions &options, MorphScope *scope)
{
    // Rate mode runs the workload on every core; a mix names one
    // workload per core.
    std::array<std::string, numCores> parts;
    if (findWorkload(name))
        parts.fill(name);
    else if (const MixSpec *mix = findMix(name))
        parts = mix->parts;
    else
        fatal("unknown workload or mix: %s", name.c_str());
    std::vector<std::unique_ptr<TraceSource>> traces;
    traces.reserve(numCores);
    for (unsigned core = 0; core < numCores; ++core) {
        const WorkloadSpec *spec = findWorkload(parts[core]);
        if (!spec)
            fatal("mix %s: unknown workload %s", name.c_str(),
                  parts[core].c_str());
        traces.push_back(makeWorkloadTrace(*spec, core, numCores,
                                           secmem.memBytes,
                                           options.seed,
                                           options.footprintScale));
    }
    return runTraces(name, std::move(traces), secmem, options, scope);
}

SimResult
simulate(const RunConfig &config, MorphScope *scope)
{
    if (config.tracePath.empty())
        return runByName(config.workload, config.secmem, config.options,
                         scope);
    // Every core replays the loaded trace from the start, each with
    // its own cursor over the shared events.
    MORPH_CHECK(config.trace != nullptr);
    std::vector<std::unique_ptr<TraceSource>> traces;
    for (unsigned core = 0; core < numCores; ++core)
        traces.push_back(std::make_unique<FileTraceSource>(*config.trace));
    return runTraces(config.tracePath, std::move(traces), config.secmem,
                     config.options, scope);
}

std::vector<std::string>
evaluationWorkloads()
{
    std::vector<std::string> names;
    for (const auto &spec : workloadTable())
        if (spec.suite == "SPEC")
            names.push_back(spec.name);
    for (const auto &mix : mixTable())
        names.push_back(mix.name);
    for (const auto &spec : workloadTable())
        if (spec.suite == "GAP")
            names.push_back(spec.name);
    return names;
}

double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double v : values)
        log_sum += std::log(v);
    return std::exp(log_sum / double(values.size()));
}

} // namespace morph
