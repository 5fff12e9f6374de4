/**
 * @file
 * morphsim — command-line secure-memory simulator.
 *
 * Runs any named workload (or mix, or user trace file) against any
 * counter/tree configuration and prints the full statistics report:
 * IPC, traffic by category, overflow/rebase counts, metadata-cache
 * behaviour, DRAM activity, latency percentiles and energy. The same
 * run can export machine-readable telemetry (morphscope): a JSON/CSV
 * stats document, an epoch time series, and a Chrome trace of sampled
 * request lifecycles (see docs/OBSERVABILITY.md).
 *
 * --sweep runs one workload against a comma-separated list of
 * configurations (or "all") as independent parallel runs on a
 * RunPool (--jobs N). Each run owns its MorphScope/StatRegistry and
 * derives its RNG seed from the (workload, config) key via
 * sweepSeed(), so report text and exports are byte-identical at any
 * --jobs level; exports gain a ".<config>" suffix per run.
 *
 * Examples:
 *   morphsim --workload mcf --config morph
 *   morphsim --workload mix2 --config vault --cache-kb 64 --timing 0
 *   morphsim --trace my.trc --config sc64 --accesses 500000
 *   morphsim --workload mcf --epoch 50000 --stats-json out.json \
 *            --trace-out trace.json
 *   morphsim --workload mcf --sweep sc64,vault,morph --jobs 4
 *   morphsim --list
 *
 * Every simulator setting, flag or INI key, is parsed and checked by
 * the settings table in sim/run_config.hh.
 *
 * Exit codes: 0 success, 2 bad command line (a flag value outside its
 * range included) or a malformed MORPH_SIM_ACCESSES/MORPH_SIM_WARMUP
 * value, 3 bad configuration (a bad INI value, an unknown INI key,
 * workload or config, an unreadable file, a malformed trace record, a
 * trace line past the protected memory), 4 runtime failure (export
 * I/O, internal error).
 */

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "common/log.hh"
#include "common/prof.hh"
#include "common/run_pool.hh"
#include "sim/run_config.hh"

namespace
{

using namespace morph;

/** Exit codes (documented in docs/SIMULATOR.md). */
constexpr int exitBadFlag = 2;
constexpr int exitBadConfig = 3;
constexpr int exitRuntime = 4;

void
usage()
{
    std::printf(
        "usage: morphsim [options]\n"
        "  --workload NAME     Table-II workload or mix (see --list)\n"
        "  --config-file FILE  read options from an INI file\n"
        "  --trace FILE        replay a trace file on every core\n"
        "  --config NAME       sc64 | vault | morph | morph-zcc |\n"
        "                      sc128 | sgx | bmt  (default: morph)\n"
        "  --mem-gb N          protected capacity (default 16)\n"
        "  --cache-kb N        metadata cache size (default 128)\n"
        "  --accesses N        measured accesses per core\n"
        "  --warmup N          warm-up accesses per core\n"
        "  --scale F           footprint divisor (default 1)\n"
        "  --seed N            trace RNG seed\n"
        "  --timing 0|1        cycle timing on/off (default 1)\n"
        "  --separate-macs     model separate MAC storage\n"
        "  --persist MODE      NVM persistence model: strict | lazy |\n"
        "                      off (default off); see SIMULATOR.md\n"
        "  --persist-epoch N   lazy mode: data writes per epoch\n"
        "                      barrier (default 4096)\n"
        "  --spec-verify       speculative verification\n"
        "  --ctr-prefetch      next-entry counter prefetch\n"
        "  --demote-enc        type-aware cache insertion\n"
        "  --occupancy         report per-level cache occupancy\n"
        "  --epoch N           sample a stats epoch every N measured\n"
        "                      accesses per core (0 = off)\n"
        "  --stats-json FILE   write the stats document as JSON\n"
        "  --stats-csv FILE    write totals (or epoch series) as CSV\n"
        "  --trace-out FILE    write a Chrome trace of sampled\n"
        "                      request lifecycles\n"
        "  --trace-sample N    trace 1-in-N data accesses\n"
        "                      (default 64; 1 = every access)\n"
        "  --prof-out FILE     write a morphprof self-profile (JSON\n"
        "                      and FILE.collapsed);\n"
        "                      MORPH_PROF=1 for a stderr summary\n"
        "  --sweep LIST        run the workload against a comma-\n"
        "                      separated config list (or 'all') as\n"
        "                      independent parallel runs\n"
        "  --jobs N            worker threads for --sweep (default:\n"
        "                      hardware concurrency)\n"
        "  --list              list workloads and exit\n");
}

void
listWorkloads()
{
    std::printf("%-12s %-6s %8s %8s %10s  %s\n", "name", "suite",
                "rdPKI", "wrPKI", "footprint", "pattern");
    for (const auto &spec : workloadTable()) {
        const char *pattern =
            spec.pattern == Pattern::Streaming  ? "streaming"
            : spec.pattern == Pattern::Random   ? "random"
            : spec.pattern == Pattern::HotCold  ? "hot-cold"
                                                : "mixed";
        std::printf("%-12s %-6s %8.1f %8.1f %7.1f GB  %s\n",
                    spec.name.c_str(), spec.suite.c_str(), spec.readPki,
                    spec.writePki, spec.footprintGb, pattern);
    }
    for (const auto &mix : mixTable()) {
        std::printf("%-12s %-6s  {%s, %s, %s, %s}\n", mix.name.c_str(),
                    "MIX", mix.parts[0].c_str(), mix.parts[1].c_str(),
                    mix.parts[2].c_str(), mix.parts[3].c_str());
    }
}

[[noreturn]] void
badFlag(const char *fmt, const char *detail)
{
    std::fprintf(stderr, "morphsim: ");
    std::fprintf(stderr, fmt, detail);
    std::fprintf(stderr, " (--help for usage)\n");
    std::exit(exitBadFlag);
}

[[noreturn]] void
badConfig(const std::string &error)
{
    std::fprintf(stderr, "morphsim: %s\n", error.c_str());
    std::exit(exitBadConfig);
}

/** Expand a --sweep list ("all" or comma-separated names) into
 *  config names; exits with code 3 on an unknown name. */
std::vector<std::string>
sweepConfigs(const std::string &list)
{
    std::vector<std::string> names;
    if (list == "all") {
        for (const NamedTreeConfig &named : namedTreeConfigs())
            names.push_back(named.name);
        return names;
    }
    std::stringstream stream(list);
    std::string item;
    while (std::getline(stream, item, ','))
        if (!item.empty())
            names.push_back(item);
    if (names.empty()) {
        std::fprintf(stderr, "morphsim: --sweep needs a config list\n");
        std::exit(exitBadFlag);
    }
    for (const std::string &name : names) {
        if (!findTreeConfig(name)) {
            std::fprintf(stderr,
                         "morphsim: unknown config '%s' in --sweep\n",
                         name.c_str());
            std::exit(exitBadConfig);
        }
    }
    return names;
}

/** Everything one parallel sweep run produces, collected on the
 *  worker and emitted in config-list order by the driver. */
struct SweepRun
{
    std::string report;     ///< header + dumpText output
    std::string writeError; ///< first failed export path, if any
};

/** Run one workload against several configs as independent parallel
 *  runs. Per-run MorphScope/StatRegistry instances, seeds derived
 *  from the (workload, config) key, output flushed in list order:
 *  byte-identical at any --jobs level. */
int
runSweep(const std::vector<std::string> &configs, const RunConfig &base,
         const ScopeConfig &scope_config,
         const std::string &stats_json_path,
         const std::string &stats_csv_path, unsigned jobs)
{
    const std::string key_base =
        base.tracePath.empty() ? base.workload : base.tracePath;
    SweepEngine engine(jobs);
    std::vector<SweepRun> runs;
    try {
        MORPH_PROF_SCOPE("morphsim.sweep");
        runs = engine.map<SweepRun>(
            configs.size(), [&](std::size_t i) {
                const std::string &name = configs[i];
                RunConfig config = base;
                config.secmem.tree = *findTreeConfig(name);
                config.options.seed =
                    sweepSeed(key_base + "/" + name, base.options.seed);

                MorphScope scope(scope_config);
                const SimResult result = simulate(config, &scope);

                SweepRun run;
                std::ostringstream text;
                text << "# " << result.configName << " on "
                     << result.workload << "\n";
                scope.dumpText(text, "morphsim");
                run.report = text.str();

                if (!stats_json_path.empty()) {
                    const std::string path =
                        stats_json_path + "." + name;
                    if (!scope.writeStatsJson(path))
                        run.writeError = path;
                }
                if (!stats_csv_path.empty() &&
                    run.writeError.empty()) {
                    const std::string path =
                        stats_csv_path + "." + name;
                    if (!scope.writeStatsCsv(path))
                        run.writeError = path;
                }
                return run;
            });
    } catch (const std::exception &e) {
        std::fprintf(stderr, "morphsim: sweep failed: %s\n", e.what());
        return exitRuntime;
    }
    if (profEnabled())
        std::fprintf(stderr, "morphsim: sweep %s\n",
                     engine.utilization().c_str());

    for (const SweepRun &run : runs)
        std::fputs(run.report.c_str(), stdout);
    std::fflush(stdout);
    for (const SweepRun &run : runs) {
        if (!run.writeError.empty()) {
            std::fprintf(stderr, "morphsim: cannot write %s\n",
                         run.writeError.c_str());
            return exitRuntime;
        }
    }
    return 0;
}

/**
 * Finalize self-profiling: merge and freeze the profile, stamp run
 * metadata, export the --prof-out file set and print the stderr
 * summary. Returns false on an export I/O failure.
 */
bool
finishProfile(const std::string &prof_out, bool prof_stderr,
              const std::string &workload_key,
              const std::string &config_name)
{
    ProfReport report = profReport();
    report.meta.set("tool", "morphsim");
    report.meta.set("workload", workload_key);
    report.meta.set("config", config_name);
    return profExport(report, prof_out, prof_stderr, "morphsim");
}

} // namespace

int
main(int argc, char **argv)
{
    RunConfig config;
    std::string stats_json_path;
    std::string stats_csv_path;
    std::string trace_out_path;
    try {
        config.options = SimOptions::fromEnv();
    } catch (const std::invalid_argument &e) {
        std::fprintf(stderr, "morphsim: %s\n", e.what());
        return exitBadFlag;
    }
    ScopeConfig scope_config;
    std::uint64_t trace_sample = 64;
    std::string sweep_list;
    std::string prof_out_path;
    unsigned jobs = 0; // 0 = RunPool::hardwareJobs()

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc)
                badFlag("option %s needs a value", arg.c_str());
            return argv[++i];
        };
        std::string error;
        if (const Setting *setting = findSettingFlag(arg)) {
            if (!applyFlag(config, *setting,
                           setting->presence ? "" : value(), error))
                badFlag("%s", error.c_str());
        } else if (arg == "--config-file") {
            IniFile ini;
            if (!IniFile::fromFile(value(), ini, error) ||
                !applyIni(config, ini, error))
                badConfig(error);
        } else if (arg == "--occupancy") {
            scope_config.occupancy = true;
        } else if (arg == "--epoch") {
            scope_config.epochAccesses = countOption("morphsim", arg, value());
        } else if (arg == "--stats-json") {
            stats_json_path = value();
        } else if (arg == "--stats-csv") {
            stats_csv_path = value();
        } else if (arg == "--trace-out") {
            trace_out_path = value();
        } else if (arg == "--trace-sample") {
            trace_sample = countOption("morphsim", arg, value(), 1);
        } else if (arg == "--prof-out") {
            prof_out_path = value();
        } else if (arg == "--sweep") {
            sweep_list = value();
        } else if (arg == "--jobs") {
            jobs = unsigned(countOption("morphsim", arg, value(), 1));
        } else if (arg == "--list") {
            listWorkloads();
            return 0;
        } else if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else {
            badFlag("unknown option '%s'", arg.c_str());
        }
    }

    if (config.workload.empty() && config.tracePath.empty()) {
        usage();
        std::fprintf(stderr, "morphsim: need --workload or --trace\n");
        return exitBadFlag;
    }

    // Validate the configuration before spending time simulating.
    std::string error;
    if (!resolveRunConfig(config, error))
        badConfig(error);
    if (!trace_out_path.empty())
        scope_config.traceSampleEvery = trace_sample;

    bool prof_stderr = false;
    profApplyEnv(prof_out_path, prof_stderr);
    const bool profiling = !prof_out_path.empty() || prof_stderr;
    if (profiling)
        profEnable();
    const std::string workload_key =
        config.tracePath.empty() ? config.workload : config.tracePath;

    if (!sweep_list.empty()) {
        if (!trace_out_path.empty())
            badFlag("%s is not supported with --sweep", "--trace-out");
        const int code =
            runSweep(sweepConfigs(sweep_list), config, scope_config,
                     stats_json_path, stats_csv_path, jobs);
        if (profiling &&
            !finishProfile(prof_out_path, prof_stderr, workload_key,
                           sweep_list))
            return code == 0 ? exitRuntime : code;
        return code;
    }

    MorphScope scope(scope_config);
    SimResult result;
    try {
        MORPH_PROF_SCOPE("morphsim.run");
        result = simulate(config, &scope);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "morphsim: simulation failed: %s\n",
                     e.what());
        return exitRuntime;
    }

    {
        // Report and exports are timed too, so a profile's root
        // scopes cover the whole window up to profReport().
        MORPH_PROF_SCOPE("morphsim.report");
        std::printf("# %s on %s\n", result.configName.c_str(),
                    result.workload.c_str());
        scope.dumpText(std::cout, "morphsim");
        std::cout.flush();

        if (!stats_json_path.empty() &&
            !scope.writeStatsJson(stats_json_path)) {
            std::fprintf(stderr, "morphsim: cannot write %s\n",
                         stats_json_path.c_str());
            return exitRuntime;
        }
        if (!stats_csv_path.empty() &&
            !scope.writeStatsCsv(stats_csv_path)) {
            std::fprintf(stderr, "morphsim: cannot write %s\n",
                         stats_csv_path.c_str());
            return exitRuntime;
        }
    }
    if (profiling &&
        !finishProfile(prof_out_path, prof_stderr, workload_key,
                       config.configName))
        return exitRuntime;
    if (!trace_out_path.empty()) {
        if (!scope.writeTrace(trace_out_path)) {
            std::fprintf(stderr, "morphsim: cannot write %s\n",
                         trace_out_path.c_str());
            return exitRuntime;
        }
        if (scope.trace().dropped() > 0)
            std::fprintf(stderr,
                         "morphsim: trace buffer full, dropped %llu"
                         " events (raise --trace-sample)\n",
                         (unsigned long long)scope.trace().dropped());
    }
    return 0;
}
