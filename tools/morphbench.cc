/**
 * @file
 * morphbench — the CI performance-tracking harness.
 *
 * Runs a fixed (workload x config) matrix through the simulator and
 * writes one JSON document per revision; a second invocation compares
 * two such documents cell by cell and fails on relative drift beyond
 * a tolerance. CI runs `morphbench --quick` on every push and checks
 * the result against the committed bench/baseline.json, so an
 * accidental IPC or traffic-bloat regression fails the build instead
 * of landing silently (see docs/OBSERVABILITY.md).
 *
 * Usage:
 *   morphbench [--quick] [--out FILE] [--rev NAME]
 *              [--accesses N] [--warmup N] [--jobs N]
 *              [--kernels] [--kernel-ms N]
 *   morphbench --compare BASE.json NEW.json [--tolerance F]
 *              [--kernel-min-ratio F]
 *
 * The run mode writes BENCH_<rev>.json by default. The quick matrix
 * is small enough for per-push CI (~seconds); the full matrix covers
 * every evaluation config. Determinism: the simulator is seeded, so
 * identical code produces identical numbers — the tolerance exists
 * for intentional model changes, which must update the baseline.
 * Matrix cells are independent simulations, so --jobs N (default:
 * hardware concurrency) runs them on a RunPool; cells are
 * collected in matrix order, so the written JSON is byte-identical
 * at every --jobs level (pinned by the morphbench_jobs_determinism
 * tier-1 test).
 *
 * --kernels additionally measures the hot-path kernel suite
 * (bench/kernels.hh) and emits a "kernels" array plus a "kernel_gate"
 * object. Kernel rates are wall-clock measurements and therefore NOT
 * byte-identical across runs — the flag is opt-in precisely so the
 * default output keeps the byte-identity contract. The gate is
 * one-directional: --compare fails a kernel only when the new rate
 * falls below min_ratio x the baseline rate (slower is a regression;
 * faster never fails). min_ratio travels in the baseline document so
 * the threshold is versioned with the blessed numbers.
 *
 * Exit codes: 0 success, 1 drift or comparison failure, 2 bad
 * command line, 4 I/O failure.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.hh"
#include "common/mutex.hh"
#include "common/prof.hh"
#include "common/run_pool.hh"
#include "kernels.hh"
#include "sim/run_config.hh"

namespace
{

using namespace morph;

struct BenchCase
{
    const char *workload;
    const char *config;
};

/** Per-push matrix: one random, one streaming, one mix — the three
 *  trace shapes — against the paper's two headline configs, plus the
 *  two NVM persist policies (configs/morph-nvm-*.ini) on the random
 *  workload so persist-traffic drift is gated per push. */
constexpr BenchCase quickMatrix[] = {
    {"mcf", "morph"},     {"mcf", "sc64"},
    {"libquantum", "morph"}, {"libquantum", "sc64"},
    {"mix1", "morph"},    {"mix1", "sc64"},
    {"mcf", "morph-nvm-strict"}, {"mcf", "morph-nvm-lazy"},
};

/** Nightly matrix: wider workload spread, all tree configs, and the
 *  NVM persist policies on both trace shapes. */
constexpr BenchCase fullMatrix[] = {
    {"mcf", "morph"},     {"mcf", "sc64"},     {"mcf", "vault"},
    {"omnetpp", "morph"}, {"omnetpp", "sc64"}, {"omnetpp", "vault"},
    {"libquantum", "morph"}, {"libquantum", "sc64"},
    {"libquantum", "vault"}, {"lbm", "morph"}, {"lbm", "sc64"},
    {"lbm", "vault"},     {"mix1", "morph"},   {"mix1", "sc64"},
    {"mix1", "vault"},    {"bc-twit", "morph"}, {"bc-twit", "sc64"},
    {"bc-twit", "vault"},
    {"mcf", "morph-nvm-strict"},        {"mcf", "morph-nvm-lazy"},
    {"libquantum", "morph-nvm-strict"}, {"libquantum", "morph-nvm-lazy"},
};

/**
 * A matrix cell's configuration: a named tree config, else
 * configs/<name>.ini, then the cell's workload and the document's
 * scale (never MORPH_SIM_*), so `morphsim --config NAME` or
 * `--config-file configs/NAME.ini` re-runs it. Exits 2 on a bad name.
 */
RunConfig
cellConfig(const BenchCase &cell, std::uint64_t accesses,
           std::uint64_t warmup)
{
    RunConfig config;
    config.configName = cell.config;
    IniFile ini;
    std::string error;
    const bool ok = findTreeConfig(cell.config) ||
                    (IniFile::fromFile(std::string(MORPH_CONFIGS_DIR) +
                                           "/" + cell.config + ".ini",
                                       ini, error) &&
                     applyIni(config, ini, error));
    config.workload = cell.workload;
    config.options.accessesPerCore = accesses;
    config.options.warmupPerCore = warmup;
    if (!ok || !resolveRunConfig(config, error)) {
        std::fprintf(stderr, "morphbench: cell %s/%s: %s\n",
                     cell.workload, cell.config, error.c_str());
        std::exit(2);
    }
    return config;
}

/** Default one-directional kernel-gate threshold (see file header). */
constexpr double kernelMinRatioDefault = 0.5;

int
runMatrix(bool quick, const std::string &out_path,
          const std::string &rev, std::uint64_t accesses,
          std::uint64_t warmup, unsigned jobs, bool with_kernels,
          double kernel_seconds)
{
    const BenchCase *cases = quick ? quickMatrix : fullMatrix;
    const std::size_t count = quick
                                  ? std::size(quickMatrix)
                                  : std::size(fullMatrix);

    // Resolve every cell up front: a bad name exits, and that must
    // not happen from a pool worker.
    std::vector<RunConfig> configs;
    for (std::size_t i = 0; i < count; ++i)
        configs.push_back(cellConfig(cases[i], accesses, warmup));

    // Every cell is an independent simulation; render each one's JSON
    // fragment on the pool, then join in matrix order so the document
    // is byte-identical at every --jobs level. Seeds come from the
    // cell's fixed SimOptions, never from scheduling.
    Mutex progress_lock;
    std::size_t started = 0;
    SweepEngine engine(jobs);
    std::vector<std::string> cells;
    {
        MORPH_PROF_SCOPE("bench.matrix");
        cells = engine.map<std::string>(count, [&](std::size_t i) {
            MORPH_PROF_SCOPE("bench.cell");
            const BenchCase &c = cases[i];
            {
                LockGuard guard(progress_lock);
                std::fprintf(stderr,
                             "morphbench: [%zu/%zu] %s/%s\n",
                             ++started, count, c.workload, c.config);
            }

            const SimResult r = simulate(configs[i]);

            std::ostringstream cell;
            cell << "{\"workload\": \"" << c.workload
                 << "\", \"config\": \"" << c.config
                 << "\", \"ipc\": " << jsonNumber(r.ipc)
                 << ", \"bloat\": " << jsonNumber(r.bloat())
                 << ", \"overflows_per_million\": "
                 << jsonNumber(r.overflowsPerMillion())
                 << ", \"cycles\": " << r.cycles
                 << ", \"dram_reads\": " << r.dram.reads
                 << ", \"dram_writes\": " << r.dram.writes
                 << ", \"mdcache_hit_rate\": "
                 << jsonNumber(r.metadataCache.hitRate())
                 << ", \"persists_per_write\": "
                 << jsonNumber(r.persistsPerWrite()) << "}";
            return cell.str();
        });
    }
    if (profEnabled())
        std::fprintf(stderr, "morphbench: matrix %s\n",
                     engine.utilization().c_str());

    std::ostringstream os;
    os << "{\n  \"schema\": \"morphbench-v1\",\n  \"rev\": \""
       << jsonEscape(rev) << "\",\n  \"accesses_per_core\": "
       << accesses << ",\n  \"warmup_per_core\": " << warmup
       << ",\n  \"cells\": [";
    for (std::size_t i = 0; i < count; ++i) {
        if (i)
            os << ",";
        os << "\n    " << cells[i];
    }
    os << "\n  ]";

    if (with_kernels) {
        std::fprintf(stderr,
                     "morphbench: measuring %s kernels (%.0f ms"
                     " each)\n",
                     "hot-path", kernel_seconds * 1000.0);
        MORPH_PROF_SCOPE("bench.kernels");
        const auto rates = kernels::measureAll(kernel_seconds);
        os << ",\n  \"kernels\": [";
        for (std::size_t i = 0; i < rates.size(); ++i) {
            if (i)
                os << ",";
            os << "\n    {\"name\": \"" << rates[i].name
               << "\", \"ops_per_sec\": "
               << jsonNumber(rates[i].ops_per_sec) << "}";
            std::fprintf(stderr, "morphbench: kernel %-18s %14.0f"
                         " ops/s\n",
                         rates[i].name.c_str(),
                         rates[i].ops_per_sec);
        }
        // The gate direction and threshold travel with the document:
        // a comparison fails a kernel only when the new rate drops
        // below min_ratio x this baseline (lower-is-worse).
        os << "\n  ],\n  \"kernel_gate\": {\"direction\":"
              " \"lower-is-worse\", \"min_ratio\": "
           << jsonNumber(kernelMinRatioDefault) << "}";
    }

    os << "\n}\n";

    std::ofstream out(out_path);
    if (!out || !(out << os.str())) {
        std::fprintf(stderr, "morphbench: cannot write %s\n",
                     out_path.c_str());
        return 4;
    }
    std::fprintf(stderr, "morphbench: wrote %s (%zu cells)\n",
                 out_path.c_str(), count);
    return 0;
}

/** Cells are matched by (workload, config); key them for lookup. */
std::string
cellKey(const JsonValue &cell)
{
    const JsonValue *w = cell.find("workload");
    const JsonValue *c = cell.find("config");
    if (!w || !c)
        return "";
    return w->asString() + "/" + c->asString();
}

JsonValue
loadDoc(const std::string &path, int &rc)
{
    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "morphbench: cannot read %s\n",
                     path.c_str());
        rc = 4;
        return JsonValue{};
    }
    std::stringstream buffer;
    buffer << in.rdbuf();
    bool ok = false;
    std::string error;
    JsonValue doc = jsonParse(buffer.str(), ok, error);
    if (!ok) {
        std::fprintf(stderr, "morphbench: %s: %s\n", path.c_str(),
                     error.c_str());
        rc = 1;
        return JsonValue{};
    }
    return doc;
}

/**
 * One-directional kernel throughput gate. Throughput metrics compare
 * lower-is-worse: a regression is the new rate dropping below
 * min_ratio x baseline; a faster kernel never fails. Baselines
 * without a "kernels" section skip the gate (pre-kernel documents);
 * a baseline WITH kernels requires the new document to have them.
 * @return number of failures
 */
int
compareKernels(const JsonValue &base, const JsonValue &fresh,
               const std::string &new_path, double min_ratio_override)
{
    const JsonValue *base_kernels = base.find("kernels");
    if (!base_kernels)
        return 0;

    double min_ratio = kernelMinRatioDefault;
    if (const JsonValue *gate = base.find("kernel_gate"))
        if (const JsonValue *mr = gate->find("min_ratio"))
            min_ratio = mr->asNumber();
    if (min_ratio_override >= 0.0)
        min_ratio = min_ratio_override;

    const JsonValue *new_kernels = fresh.find("kernels");
    if (!new_kernels) {
        std::fprintf(stderr,
                     "morphbench: FAIL kernels: baseline has a"
                     " kernel section but %s has none (run with"
                     " --kernels)\n",
                     new_path.c_str());
        return 1;
    }

    int failures = 0;
    for (const JsonValue &base_k : base_kernels->elements()) {
        const JsonValue *name = base_k.find("name");
        const JsonValue *bv = base_k.find("ops_per_sec");
        if (!name || !bv)
            continue;
        const std::string kname = name->asString();
        const JsonValue *new_k = nullptr;
        for (const JsonValue &candidate : new_kernels->elements()) {
            const JsonValue *cn = candidate.find("name");
            if (cn && cn->asString() == kname)
                new_k = &candidate;
        }
        if (!new_k) {
            std::fprintf(stderr,
                         "morphbench: FAIL kernel %s: missing from"
                         " %s\n",
                         kname.c_str(), new_path.c_str());
            ++failures;
            continue;
        }
        const JsonValue *nv = new_k->find("ops_per_sec");
        const double b = bv->asNumber();
        const double n = nv ? nv->asNumber() : std::nan("");
        if (!std::isfinite(b) || !std::isfinite(n) || b <= 0.0) {
            std::fprintf(stderr,
                         "morphbench: FAIL kernel %s: rate not"
                         " finite/positive\n",
                         kname.c_str());
            ++failures;
            continue;
        }
        const double ratio = n / b;
        if (ratio < min_ratio) {
            std::fprintf(stderr,
                         "morphbench: FAIL kernel %s: %.4g ->"
                         " %.4g ops/s (ratio %.2f < min %.2f)\n",
                         kname.c_str(), b, n, ratio, min_ratio);
            ++failures;
        } else {
            std::fprintf(stderr,
                         "morphbench: ok   kernel %s: %.4g ->"
                         " %.4g ops/s (ratio %.2f)\n",
                         kname.c_str(), b, n, ratio);
        }
    }
    return failures;
}

int
compare(const std::string &base_path, const std::string &new_path,
        double tolerance, double kernel_min_ratio)
{
    int rc = 0;
    const JsonValue base = loadDoc(base_path, rc);
    if (rc)
        return rc;
    const JsonValue fresh = loadDoc(new_path, rc);
    if (rc)
        return rc;

    const JsonValue *base_cells = base.find("cells");
    const JsonValue *new_cells = fresh.find("cells");
    if (!base_cells || !new_cells) {
        std::fprintf(stderr,
                     "morphbench: missing \"cells\" array\n");
        return 1;
    }

    // The metrics gated by the drift check. Lower-is-better vs
    // higher-is-better doesn't matter: drift in either direction
    // means the model changed and the baseline must be re-blessed.
    static const char *metrics[] = {"ipc", "bloat",
                                    "persists_per_write"};

    int failures = 0;
    for (const JsonValue &base_cell : base_cells->elements()) {
        const std::string key = cellKey(base_cell);
        const JsonValue *new_cell = nullptr;
        for (const JsonValue &candidate : new_cells->elements())
            if (cellKey(candidate) == key)
                new_cell = &candidate;
        if (!new_cell) {
            std::fprintf(stderr,
                         "morphbench: FAIL %s: cell missing from %s\n",
                         key.c_str(), new_path.c_str());
            ++failures;
            continue;
        }
        for (const char *metric : metrics) {
            const JsonValue *bv = base_cell.find(metric);
            // A metric absent from the baseline cell is a pre-metric
            // document (same rule as baselines without "kernels"):
            // skip it rather than fail. A baseline WITH the metric
            // still requires the new document to carry it.
            if (!bv)
                continue;
            const JsonValue *nv = new_cell->find(metric);
            const double b = bv ? bv->asNumber() : std::nan("");
            const double n = nv ? nv->asNumber() : std::nan("");
            if (!std::isfinite(b) || !std::isfinite(n)) {
                std::fprintf(stderr,
                             "morphbench: FAIL %s: %s not finite\n",
                             key.c_str(), metric);
                ++failures;
                continue;
            }
            const double drift =
                b == 0.0 ? std::fabs(n)
                         : std::fabs(n - b) / std::fabs(b);
            if (drift > tolerance) {
                std::fprintf(stderr,
                             "morphbench: FAIL %s: %s drifted %.2f%%"
                             " (%.6g -> %.6g, tolerance %.0f%%)\n",
                             key.c_str(), metric, drift * 100.0, b, n,
                             tolerance * 100.0);
                ++failures;
            } else {
                std::fprintf(stderr,
                             "morphbench: ok   %s: %s %.6g -> %.6g"
                             " (%.2f%%)\n",
                             key.c_str(), metric, b, n, drift * 100.0);
            }
        }
    }
    failures += compareKernels(base, fresh, new_path,
                               kernel_min_ratio);
    if (failures) {
        std::fprintf(stderr,
                     "morphbench: %d failure(s); if the change is"
                     " intentional, regenerate bench/baseline.json\n",
                     failures);
        return 1;
    }
    std::fprintf(stderr, "morphbench: all cells within tolerance\n");
    return 0;
}

void
usage()
{
    std::printf(
        "usage: morphbench [options]\n"
        "  --quick             per-push matrix (8 cells; default is\n"
        "                      the 22-cell nightly matrix)\n"
        "  --out FILE          output path (default BENCH_<rev>.json)\n"
        "  --rev NAME          revision label (default 'local')\n"
        "  --accesses N        measured accesses per core\n"
        "  --warmup N          warm-up accesses per core\n"
        "  --jobs N            run matrix cells on N worker threads\n"
        "                      (default: hardware concurrency; output\n"
        "                      is byte-identical at every level)\n"
        "  --kernels           also measure the hot-path kernel suite\n"
        "                      (wall-clock rates; output is no longer\n"
        "                      byte-identical across runs)\n"
        "  --kernel-ms N       per-kernel measurement time in ms\n"
        "                      (default 200)\n"
        "  --compare BASE NEW  compare two bench documents\n"
        "  --tolerance F       max relative drift for sim cells\n"
        "                      (default 0.05)\n"
        "  --kernel-min-ratio F  fail a kernel below F x baseline\n"
        "                      (default: baseline's kernel_gate)\n"
        "  --prof-out FILE     write a morphprof self-profile (JSON\n"
        "                      and FILE.collapsed);\n"
        "                      MORPH_PROF=1 for a stderr summary\n");
}

/** Finalize self-profiling (see morphsim's twin): report, stamp
 *  metadata, export, summarize. Returns false on export I/O failure. */
bool
finishProfile(const std::string &prof_out, bool prof_stderr,
              bool quick)
{
    ProfReport report = profReport();
    report.meta.set("tool", "morphbench");
    report.meta.set("matrix", quick ? "quick" : "full");
    return profExport(report, prof_out, prof_stderr, "morphbench");
}

} // namespace

int
main(int argc, char **argv)
{
    bool quick = false;
    std::string out_path;
    std::string rev = "local";
    std::string compare_base;
    std::string compare_new;
    double tolerance = 0.05;
    double kernel_min_ratio = -1.0; // negative: use baseline's gate
    bool with_kernels = false;
    double kernel_seconds = 0.2;
    std::string prof_out_path;
    std::uint64_t accesses = 20'000;
    std::uint64_t warmup = 5'000;
    unsigned jobs = RunPool::hardwareJobs();

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr,
                             "morphbench: option %s needs a value\n",
                             arg.c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--quick") {
            quick = true;
        } else if (arg == "--out") {
            out_path = value();
        } else if (arg == "--rev") {
            rev = value();
        } else if (arg == "--accesses") {
            accesses = countOption("morphbench", arg, value(), 1);
        } else if (arg == "--warmup") {
            warmup = countOption("morphbench", arg, value());
        } else if (arg == "--jobs") {
            jobs = unsigned(countOption("morphbench", arg, value(), 1));
        } else if (arg == "--kernels") {
            with_kernels = true;
        } else if (arg == "--kernel-ms") {
            kernel_seconds =
                numberOption("morphbench", arg, value(), true) / 1000.0;
        } else if (arg == "--compare") {
            compare_base = value();
            compare_new = value();
        } else if (arg == "--tolerance") {
            tolerance = numberOption("morphbench", arg, value());
        } else if (arg == "--kernel-min-ratio") {
            kernel_min_ratio =
                numberOption("morphbench", arg, value(), true);
        } else if (arg == "--prof-out") {
            prof_out_path = value();
        } else if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else {
            usage();
            std::fprintf(stderr, "morphbench: unknown option '%s'\n",
                         arg.c_str());
            return 2;
        }
    }

    if (!compare_base.empty())
        return compare(compare_base, compare_new, tolerance,
                       kernel_min_ratio);

    bool prof_stderr = false;
    profApplyEnv(prof_out_path, prof_stderr);
    const bool profiling = !prof_out_path.empty() || prof_stderr;
    if (profiling)
        profEnable();

    if (out_path.empty())
        out_path = "BENCH_" + rev + ".json";
    const int code = runMatrix(quick, out_path, rev, accesses, warmup,
                               jobs, with_kernels, kernel_seconds);
    if (profiling && !finishProfile(prof_out_path, prof_stderr, quick))
        return code == 0 ? 4 : code;
    return code;
}
