/**
 * @file
 * morphperf: the host-throughput benchmark driver.
 *
 * Runs one benchmark workload (benchmark/README.md) as a sequence of
 * fixed-size units until a wall-clock budget is spent. Every unit is
 * the same amount of simulated work under its own seed, so host times
 * of different units, runs and commits compare directly. Prints one
 * JSON document on stdout: per-unit host-time samples, operation
 * counts and self-check failures, plus
 *
 *   --pin    the deterministic statistics of one more unit, at the
 *            pinned seed, which run.py compares with expected.json;
 *   --trace  per-layer metrics from one more unit, run with the
 *            in-program profiler (common/prof.hh) on and checked
 *            against the untraced unit of the same seed.
 *
 * Usage: morphperf --workload NAME [--seed N] [--seconds S] [--trace]
 *                  [--pin] [--jobs N]
 * Exit status: 0 on success (check failures are reported in the JSON),
 * 2 on a usage error.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "common/json.hh"
#include "common/log.hh"
#include "common/prof.hh"
#include "common/run_pool.hh"
#include "kernels.hh"
#include "secmem/secure_memory.hh"
#include "sim/simulator.hh"

namespace
{

using namespace morph;
using Clock = std::chrono::steady_clock;

// Unit sizes. Frozen: changing any of them changes every host-time
// metric and invalidates expected.json (re-bless with run.py --bless).
// fig15-sweep's unit is the Fig 15 harness's own grid: bench::
// perfOptions() and bench::modelConfig() under the unit's seed.
constexpr unsigned numCores = 4; ///< runByName's rate-mode system
constexpr std::uint64_t mcfWarmup = 100'000;   ///< per core
constexpr std::uint64_t mcfMeasured = 400'000; ///< per core
constexpr std::uint64_t gccWarmup = 400'000;
constexpr std::uint64_t gccMeasured = 1'200'000;
constexpr double gccFootprintScale = 32.0; ///< overflowOptions()
constexpr std::size_t figCells = 84;       ///< 28 workloads x 3 trees
constexpr std::uint64_t figPinDivisor = 20; ///< pinned grid's accesses
constexpr std::uint64_t fillLines = 65'536;
constexpr std::uint64_t functionalOps = 600'000;
constexpr unsigned writePercent = 30;

constexpr std::uint64_t pinSeed = 1;
constexpr unsigned setupReps = 5; ///< set-ups timed per unit (median)
constexpr double kernelSeconds = 0.05;

/** Every per-layer metric; a workload that does not exercise a layer
 *  reports 0 for it. Must match BENCHMARK.json's per_layer list. */
const char *const layerNames[] = {
    "workloads.ns_per_entry",
    "core.ns_per_entry",
    "secmem.ns_per_access",
    "secmem.mem_accesses_per_access",
    "mdcache.hit_rate",
    "mdcache.dirty_evictions_per_k",
    "counters.rebases_per_m",
    "counters.overflows_per_m",
    "counters.morphs_per_m",
    "counters.increment_ns",
    "counters.zcc_decode_ns",
    "dram.ns_per_request",
    "dram.requests_per_access",
    "dram.row_hit_rate",
    "sim.residual_frac",
    "sim.speedup_morph_vs_sc64",
    "sim.bloat_morph",
    "trace.closure",
    "trace.overhead_frac",
    "run_pool.cell_s_p50",
    "run_pool.cell_s_max",
    "run_pool.busy_frac",
    "functional.read_ns",
    "functional.write_ns",
    "functional.reenc_lines_per_k_writes",
    "functional.rebases_per_k_writes",
    "integrity.verify_ns",
    "crypto.otp_pad_ns",
    "crypto.mac_ns",
};

using Stats = std::map<std::string, std::uint64_t>;
using Layers = std::map<std::string, double>;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

/** Build an object @p setupReps times, timing each build, and keep the
 *  last; the previous instance is destroyed outside the timed region. */
template <typename Build>
auto
setUp(Build &&build, double &median_s)
{
    decltype(build()) built;
    std::vector<double> samples;
    for (unsigned i = 0; i < setupReps; ++i) {
        built = nullptr;
        const auto t0 = Clock::now();
        built = build();
        samples.push_back(secondsSince(t0));
    }
    median_s = median(samples);
    return built;
}

/** xorshift64: functional-rw's operation and plaintext stream. */
struct Xorshift
{
    std::uint64_t s;

    std::uint64_t
    next()
    {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        return s;
    }
};

/** Calls and host seconds of every profile entry named @p name, summed
 *  over threads and call paths. */
struct ScopeTime
{
    double calls = 0;
    double inclusive = 0;
    double exclusive = 0;
};

ScopeTime
scopeTime(const ProfReport &report, const std::string &name)
{
    ScopeTime t;
    for (const ProfEntry &e : report.entries) {
        if (e.name != name)
            continue;
        t.calls += double(e.calls);
        t.inclusive += 1e-9 * double(e.inclusiveNs);
        t.exclusive += 1e-9 * double(e.exclusiveNs);
    }
    return t;
}

// ---------------------------------------------------------------------
// Simulated cells
// ---------------------------------------------------------------------

/** One simulation: a workload or mix under one tree config. */
struct CellSpec
{
    std::string workload;
    SecureModelConfig secmem;
    SimOptions options;

    std::string key() const { return workload + "/" + secmem.tree.name; }
};

CellSpec
makeCell(const std::string &workload, TreeConfig tree, std::uint64_t seed,
         std::uint64_t warmup, std::uint64_t measured, bool timing,
         double footprint_scale)
{
    CellSpec cell;
    cell.workload = workload;
    cell.secmem.tree = std::move(tree);
    cell.options.warmupPerCore = warmup;
    cell.options.accessesPerCore = measured;
    cell.options.seed = seed;
    cell.options.timing = timing;
    cell.options.footprintScale = footprint_scale;
    return cell;
}

/** Per-core trace sources, built exactly as runByName builds them. */
std::vector<std::unique_ptr<TraceSource>>
makeTraces(const CellSpec &cell)
{
    std::vector<std::string> parts;
    if (findWorkload(cell.workload)) {
        parts.assign(numCores, cell.workload);
    } else {
        for (const MixSpec &mix : mixTable())
            if (mix.name == cell.workload)
                parts.assign(mix.parts.begin(), mix.parts.end());
    }
    if (parts.size() != numCores)
        fatal("morphperf: unknown workload %s", cell.workload.c_str());
    std::vector<std::unique_ptr<TraceSource>> traces;
    for (unsigned core = 0; core < numCores; ++core)
        traces.push_back(makeWorkloadTrace(
            *findWorkload(parts[core]), core, numCores,
            cell.secmem.memBytes, cell.options.seed,
            cell.options.footprintScale));
    return traces;
}

std::uint64_t
entriesPerCore(const CellSpec &cell)
{
    return cell.options.warmupPerCore + cell.options.accessesPerCore;
}

/**
 * Host seconds TraceSource::next takes to produce every entry a cell
 * consumes, on fresh sources built as the cell builds them. The
 * profiler has no scope around trace generation (it runs inside
 * sim.step), so this is the one split the benchmark times itself.
 */
double
traceSeconds(const CellSpec &cell)
{
    const auto traces = makeTraces(cell);
    const std::uint64_t entries = entriesPerCore(cell);
    const auto t0 = Clock::now();
    for (const auto &trace : traces)
        for (std::uint64_t k = 0; k < entries; ++k)
            trace->next();
    return secondsSince(t0);
}

/** Deterministic results and host time of one simulated cell. */
struct CellResult
{
    std::uint64_t cycles = 0;
    std::uint64_t instructions = 0;
    double ipc = 0;
    TrafficStats traffic;
    CacheStats mdcache;
    ChannelActivity dram;
    double setupS = 0; ///< trace sources + SimSystem construction
    double runS = 0;   ///< warm-up + measured phases
};

void
addCellStats(Stats &out, const std::string &key, const CellResult &r)
{
    const std::string p = key + ".";
    out[p + "cycles"] = r.cycles;
    out[p + "instructions"] = r.instructions;
    for (unsigned c = 0; c < numTrafficCategories; ++c)
        out[p + "traffic." + trafficKey(Traffic(c))] =
            r.traffic.accesses(Traffic(c));
    out[p + "overflows"] = r.traffic.totalOverflows();
    out[p + "rebases"] = r.traffic.totalRebases();
    out[p + "morphs"] = r.traffic.totalMorphs();
    out[p + "mdcache.hits"] = r.mdcache.hits;
    out[p + "mdcache.misses"] = r.mdcache.misses;
    out[p + "mdcache.dirty_evictions"] = r.mdcache.dirtyEvictions;
    out[p + "dram.reads"] = r.dram.reads;
    out[p + "dram.writes"] = r.dram.writes;
    out[p + "dram.row_hits"] = r.dram.rowHits;
}

/** A cell's system, built as runTraces in src/sim/simulator.cc builds
 *  it. */
std::unique_ptr<SimSystem>
buildSystem(const CellSpec &cell)
{
    SystemConfig config;
    config.secmem = cell.secmem;
    config.dram = cell.options.dram;
    config.timing = cell.options.timing;
    config.numCores = numCores;
    return std::make_unique<SimSystem>(config, makeTraces(cell));
}

/** The runTraces sequence of src/sim/simulator.cc, with set-up timed
 *  apart from the warm-up and measured phases. */
CellResult
runCell(const CellSpec &cell)
{
    CellResult r;
    const auto system = setUp([&] { return buildSystem(cell); }, r.setupS);
    const auto t0 = Clock::now();
    if (cell.options.warmupPerCore > 0)
        system->run(cell.options.warmupPerCore);
    system->startMeasurement();
    system->run(cell.options.accessesPerCore);
    system->finishRun();
    r.runS = secondsSince(t0);

    r.cycles = system->measuredCycles();
    r.instructions = system->measuredInstructions();
    r.ipc = system->aggregateIpc();
    r.traffic = system->secmem().stats();
    r.mdcache = system->secmem().metadataCache().stats();
    r.dram = system->dram().totalActivity();
    return r;
}

/** The product path for one fig15 cell: runByName, timed whole. */
CellResult
runCellByName(const CellSpec &cell)
{
    const auto t0 = Clock::now();
    const SimResult s = runByName(cell.workload, cell.secmem, cell.options);
    CellResult r;
    r.runS = secondsSince(t0);
    r.cycles = s.cycles;
    r.instructions = s.instructions;
    r.ipc = s.ipc;
    r.traffic = s.traffic;
    r.mdcache = s.metadataCache;
    r.dram = s.dram;
    return r;
}

// ---------------------------------------------------------------------
// Units
// ---------------------------------------------------------------------

/** One unit's samples, counts and check outcomes. */
struct UnitResult
{
    double setupS = 0;
    double wallS = 0;
    std::uint64_t accesses = 0; ///< data accesses / functional ops
    std::uint64_t failed = 0;
    Stats stats;                       ///< deterministic statistics
    std::vector<std::string> failures; ///< self-check failures
    Layers layers;                     ///< profiled units only
};

void
require(UnitResult &u, bool ok, const std::string &what)
{
    if (!ok)
        u.failures.push_back(what);
}

/** Measured-window totals over a unit's cells. */
struct SimTotals
{
    double data = 0, mem = 0, hits = 0, misses = 0, dirty = 0;
    double rebases = 0, overflows = 0, morphs = 0;
    double dramRequests = 0, rowHits = 0;

    explicit SimTotals(const std::vector<CellResult> &results)
    {
        for (const CellResult &r : results) {
            data += double(r.traffic.accesses(Traffic::Data));
            mem += double(r.traffic.total());
            hits += double(r.mdcache.hits);
            misses += double(r.mdcache.misses);
            dirty += double(r.mdcache.dirtyEvictions);
            rebases += double(r.traffic.totalRebases());
            overflows += double(r.traffic.totalOverflows());
            morphs += double(r.traffic.totalMorphs());
            dramRequests += double(r.dram.reads + r.dram.writes);
            rowHits += double(r.dram.rowHits);
        }
    }

    double hitRate() const { return ratio(hits, hits + misses); }
    double requestsPerAccess() const { return ratio(dramRequests, data); }
};

/** Workload self-checks: fail when a workload stops exercising the
 *  layer it was chosen for. */
void
checkSim(UnitResult &u, const std::string &workload,
         const std::vector<CellSpec> &cells,
         const std::vector<CellResult> &results)
{
    const SimTotals t(results);
    for (std::size_t i = 0; i < cells.size(); ++i)
        if (cells[i].options.timing)
            require(u,
                    results[i].traffic.total() ==
                        results[i].dram.reads + results[i].dram.writes,
                    cells[i].key() +
                        ": traffic categories do not sum to DRAM "
                        "reads + writes");
    if (workload == "mcf-timed") {
        require(u, t.hitRate() < 0.5, "mcf-timed: mdcache.hit_rate >= 0.5");
        require(u, t.requestsPerAccess() > 2,
                "mcf-timed: dram.requests_per_access <= 2");
    } else if (workload == "gcc-traffic") {
        require(u, t.rebases > 0, "gcc-traffic: no MCR rebases");
        require(u, t.hitRate() > 0.99, "gcc-traffic: mdcache.hit_rate <= 0.99");
        require(u, t.dramRequests == 0, "gcc-traffic: DRAM requests seen");
    } else if (workload == "fig15-sweep") {
        require(u, results.size() == figCells, "fig15-sweep: not 84 cells");
    }
}

/**
 * Per-layer metrics of a profiled sim unit. Layer times are profiler
 * inclusive times (secmem.data_access, dram.access) and sim.step's
 * self time, split into trace generation (timed apart) and the core.
 * Each includes the profiler's own per-scope cost.
 */
void
simLayers(Layers &m, const std::vector<CellSpec> &cells,
          const std::vector<CellResult> &results, const ProfReport &prof)
{
    const SimTotals c(results);
    const ScopeTime run = scopeTime(prof, "sim.run");
    const ScopeTime step = scopeTime(prof, "sim.step");
    const ScopeTime secmem = scopeTime(prof, "secmem.data_access");
    const ScopeTime dram = scopeTime(prof, "dram.access");
    double workloads = 0, cellSeconds = 0;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        workloads += traceSeconds(cells[i]);
        cellSeconds += results[i].runS;
    }
    m["workloads.ns_per_entry"] = 1e9 * ratio(workloads, step.calls);
    m["core.ns_per_entry"] =
        1e9 * ratio(step.exclusive - workloads, step.calls);
    m["secmem.ns_per_access"] = 1e9 * ratio(secmem.inclusive, secmem.calls);
    m["secmem.mem_accesses_per_access"] = ratio(c.mem, c.data);
    m["mdcache.hit_rate"] = c.hitRate();
    m["mdcache.dirty_evictions_per_k"] = 1e3 * ratio(c.dirty, c.data);
    m["counters.rebases_per_m"] = 1e6 * ratio(c.rebases, c.data);
    m["counters.overflows_per_m"] = 1e6 * ratio(c.overflows, c.data);
    m["counters.morphs_per_m"] = 1e6 * ratio(c.morphs, c.data);
    m["dram.ns_per_request"] = 1e9 * ratio(dram.inclusive, dram.calls);
    m["dram.requests_per_access"] = c.requestsPerAccess();
    m["dram.row_hit_rate"] = ratio(c.rowHits, c.dramRequests);
    m["sim.residual_frac"] = 1.0 - ratio(step.inclusive, run.inclusive);
    m["trace.closure"] = ratio(step.inclusive, cellSeconds);

    // Simulated results of the modelled design: MorphCtr-128 over
    // SC-64 IPC (geomean across workloads) and MorphCtr-128 bloat.
    std::map<std::string, double> sc64Ipc;
    std::vector<double> speedups;
    double morphMem = 0, morphData = 0;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const std::string &tree = cells[i].secmem.tree.name;
        if (tree == TreeConfig::sc64().name)
            sc64Ipc[cells[i].workload] = results[i].ipc;
    }
    for (std::size_t i = 0; i < cells.size(); ++i) {
        if (cells[i].secmem.tree.name != TreeConfig::morph().name)
            continue;
        const auto it = sc64Ipc.find(cells[i].workload);
        if (it != sc64Ipc.end() && it->second > 0)
            speedups.push_back(results[i].ipc / it->second);
        morphMem += double(results[i].traffic.total());
        morphData += double(results[i].traffic.accesses(Traffic::Data));
    }
    m["sim.speedup_morph_vs_sc64"] = geomean(speedups);
    m["sim.bloat_morph"] = ratio(morphMem, morphData);
}

/** mcf-timed / gcc-traffic: one workload under SC-64 and MorphCtr-128,
 *  single-threaded. */
UnitResult
pairUnit(const std::string &workload, std::uint64_t seed, bool profile)
{
    const bool timed = workload == "mcf-timed";
    std::vector<CellSpec> cells;
    for (TreeConfig tree : {TreeConfig::sc64(), TreeConfig::morph()})
        cells.push_back(timed ? makeCell("mcf", tree, seed, mcfWarmup,
                                         mcfMeasured, true, 1.0)
                              : makeCell("gcc", tree, seed, gccWarmup,
                                         gccMeasured, false,
                                         gccFootprintScale));
    UnitResult u;
    if (profile)
        profEnable();
    std::vector<CellResult> results;
    for (const CellSpec &cell : cells) {
        results.push_back(runCell(cell));
        u.setupS += results.back().setupS;
        u.wallS += results.back().runS;
        u.accesses += numCores * entriesPerCore(cell);
        addCellStats(u.stats, cell.key(), results.back());
    }
    checkSim(u, workload, cells, results);
    if (profile)
        simLayers(u.layers, cells, results, profReport());
    return u;
}

/**
 * fig15-sweep: the Fig 15 grid on a SweepEngine, in the harness's cell
 * order. The pinned unit runs the same cells at 1/figPinDivisor of the
 * accesses: a full grid would double the cost of a run.
 */
UnitResult
gridUnit(std::uint64_t seed, unsigned jobs, bool profile, bool pin)
{
    SimOptions options = bench::perfOptions();
    options.seed = seed;
    if (pin) {
        options.warmupPerCore /= figPinDivisor;
        options.accessesPerCore /= figPinDivisor;
    }
    std::vector<CellSpec> cells;
    for (const std::string &name : evaluationWorkloads())
        for (TreeConfig tree :
             {TreeConfig::vault(), TreeConfig::sc64(), TreeConfig::morph()})
            cells.push_back(
                {name, bench::modelConfig(std::move(tree)), options});

    UnitResult u;
    // Set-up is starting the pool (workers spawned and one session
    // dispatched, so every worker has run before the first cell) plus
    // building each cell's system, which runByName does inside the
    // timed grid: pool start alone is tens of microseconds of thread
    // creation, too noisy to compare, and blind to per-cell set-up.
    const auto engine = setUp(
        [jobs] {
            auto e = std::make_unique<SweepEngine>(jobs);
            e->pool().forEach(jobs, [](std::size_t) {});
            return e;
        },
        u.setupS);
    for (const CellSpec &cell : cells) {
        const auto t0 = Clock::now();
        const auto system = buildSystem(cell);
        u.setupS += secondsSince(t0); // destruction stays untimed
    }
    if (profile)
        profEnable();
    const auto t0 = Clock::now();
    const std::vector<CellResult> results = engine->map<CellResult>(
        cells.size(), [&](std::size_t i) { return runCellByName(cells[i]); });
    u.wallS = secondsSince(t0);
    for (std::size_t i = 0; i < cells.size(); ++i) {
        u.accesses += numCores * entriesPerCore(cells[i]);
        addCellStats(u.stats, cells[i].key(), results[i]);
    }
    checkSim(u, "fig15-sweep", cells, results);
    if (profile) {
        simLayers(u.layers, cells, results, profReport());
        std::vector<double> cellSeconds;
        double busy = 0;
        for (const CellResult &r : results) {
            cellSeconds.push_back(r.runS);
            busy += r.runS;
        }
        u.layers["run_pool.cell_s_p50"] = median(cellSeconds);
        u.layers["run_pool.cell_s_max"] =
            *std::max_element(cellSeconds.begin(), cellSeconds.end());
        u.layers["run_pool.busy_frac"] =
            ratio(busy, u.wallS * double(engine->jobs()));
    }
    return u;
}

// ---------------------------------------------------------------------
// functional-rw
// ---------------------------------------------------------------------

CachelineData
plaintext(Xorshift &rng)
{
    CachelineData line;
    for (unsigned w = 0; w < lineBytes / 8; ++w) {
        const std::uint64_t v = rng.next();
        std::memcpy(line.data() + 8 * w, &v, 8);
    }
    return line;
}

void
addFunctionalStats(Stats &out, const SecureMemory::Stats &s,
                   std::uint64_t failed_reads, std::uint64_t mismatches,
                   std::uint64_t digest)
{
    out["functional.reads"] = s.reads;
    out["functional.writes"] = s.writes;
    out["functional.reencrypted_lines"] = s.reencryptedLines;
    out["functional.counter_overflows"] = s.counterOverflows;
    out["functional.tree_overflows"] = s.treeOverflows;
    out["functional.rebases"] = s.rebases;
    out["functional.integrity_failures"] = s.integrityFailures;
    out["functional.failed_reads"] = failed_reads;
    out["functional.mismatches"] = mismatches;
    out["functional.digest"] = digest;
}

/**
 * Fresh MorphCtr-128 SecureMemory (1 GiB), filled with fillLines lines
 * (set-up), then functionalOps uniform operations over those lines:
 * writePercent% writeLine, the rest readLine, each read checked against
 * a shadow copy of what was written. A profiled unit profiles only the
 * operations.
 */
UnitResult
functionalUnit(std::uint64_t seed, bool profile)
{
    UnitResult u;
    Xorshift rng{seed | 1};
    const auto t0 = Clock::now();
    auto mem = std::make_unique<SecureMemory>(SecureMemoryConfig{});
    std::vector<CachelineData> shadow(fillLines);
    for (LineAddr line = 0; line < fillLines; ++line) {
        shadow[line] = plaintext(rng);
        mem->writeLine(line, shadow[line]);
    }
    u.setupS = secondsSince(t0);
    const SecureMemory::Stats fill = mem->stats();

    if (profile)
        profEnable();
    std::uint64_t mismatches = 0, digest = 0;
    const auto t1 = Clock::now();
    for (std::uint64_t op = 0; op < functionalOps; ++op) {
        const std::uint64_t x = rng.next();
        const LineAddr line = (x >> 8) % fillLines;
        if ((x >> 40) % 100 < writePercent) {
            shadow[line] = plaintext(rng);
            mem->writeLine(line, shadow[line]);
        } else if (const auto got = mem->readLine(line)) {
            mismatches += *got != shadow[line];
            std::uint64_t words[lineBytes / 8];
            std::memcpy(words, got->data(), lineBytes);
            for (std::uint64_t w : words)
                digest = (digest ^ w) * 0x100000001b3ull;
        } else {
            ++u.failed;
        }
    }
    u.wallS = secondsSince(t1);
    u.accesses = functionalOps;

    const SecureMemory::Stats &end = mem->stats();
    addFunctionalStats(u.stats, end, u.failed, mismatches, digest);
    require(u, end.reencryptedLines > fill.reencryptedLines,
            "functional-rw: no re-encryptions");
    require(u, end.integrityFailures == 0 && u.failed == 0,
            "functional-rw: verification failures");
    require(u, mismatches == 0,
            "functional-rw: a read returned data other than was written");
    if (profile) {
        const ProfReport prof = profReport();
        const ScopeTime read = scopeTime(prof, "secmem.read_line");
        const ScopeTime write = scopeTime(prof, "secmem.write_line");
        const ScopeTime verify = scopeTime(prof, "tree.verify");
        const double writes = double(end.writes - fill.writes);
        Layers &m = u.layers;
        m["functional.read_ns"] = 1e9 * ratio(read.inclusive, read.calls);
        m["functional.write_ns"] = 1e9 * ratio(write.inclusive, write.calls);
        m["integrity.verify_ns"] =
            1e9 * ratio(verify.inclusive, verify.calls);
        m["functional.reenc_lines_per_k_writes"] =
            1e3 *
            ratio(double(end.reencryptedLines - fill.reencryptedLines),
                  writes);
        m["functional.rebases_per_k_writes"] =
            1e3 * ratio(double(end.rebases - fill.rebases), writes);
        m["trace.closure"] = ratio(read.inclusive + write.inclusive, u.wallS);
    }
    return u;
}

// ---------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 5;
    bool trace = false;
    bool pin = false;
    unsigned jobs = 3;
};

const char *const workloadNames[] = {"mcf-timed", "gcc-traffic",
                                     "fig15-sweep", "functional-rw"};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "morphperf: %s\n"
                 "usage: morphperf --workload "
                 "{mcf-timed|gcc-traffic|fig15-sweep|functional-rw}\n"
                 "                 [--seed N] [--seconds S] [--trace] "
                 "[--pin] [--jobs N]\n",
                 why);
    std::exit(2);
}

std::uint64_t
parseCount(const char *flag, const char *text)
{
    char *end = nullptr;
    const unsigned long long v = std::strtoull(text, &end, 10);
    if (!*text || *end || text[0] == '-')
        usage((std::string("bad value for ") + flag).c_str());
    return v;
}

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> const char * {
            if (i + 1 >= argc)
                usage((arg + " needs a value").c_str());
            return argv[++i];
        };
        if (arg == "--workload") {
            opt.workload = value();
        } else if (arg == "--seed") {
            opt.seed = parseCount("--seed", value());
        } else if (arg == "--seconds") {
            const char *text = value();
            char *end = nullptr;
            opt.seconds = std::strtod(text, &end);
            if (!*text || *end || !(opt.seconds > 0))
                usage("bad value for --seconds");
        } else if (arg == "--jobs") {
            const std::uint64_t jobs = parseCount("--jobs", value());
            if (jobs < 1 || jobs > 64)
                usage("--jobs must be 1..64");
            opt.jobs = unsigned(jobs);
        } else if (arg == "--trace") {
            opt.trace = true;
        } else if (arg == "--pin") {
            opt.pin = true;
        } else {
            usage(("unknown argument " + arg).c_str());
        }
    }
    if (std::find(std::begin(workloadNames), std::end(workloadNames),
                  opt.workload) == std::end(workloadNames))
        usage("unknown or missing --workload");
    return opt;
}

UnitResult
runUnit(const Options &opt, std::uint64_t seed, bool profile,
        bool pin = false)
{
    try {
        if (opt.workload == "fig15-sweep")
            return gridUnit(seed, opt.jobs, profile, pin);
        if (opt.workload == "functional-rw")
            return functionalUnit(seed, profile);
        return pairUnit(opt.workload, seed, profile);
    } catch (const std::exception &e) {
        UnitResult u;
        u.failed = 1;
        u.accesses = 1;
        u.failures.push_back(std::string("exception: ") + e.what());
        return u;
    }
}

/** Kernel closures shared with morphbench --kernels, as ns per op. */
void
addKernelLayers(Layers &out)
{
    const std::map<std::string, std::string> wanted = {
        {"morph_increment", "counters.increment_ns"},
        {"zcc_decode", "counters.zcc_decode_ns"},
        {"otp_pad", "crypto.otp_pad_ns"},
        {"siphash_mac", "crypto.mac_ns"},
    };
    for (const kernels::Kernel &k : kernels::makeKernels()) {
        const auto it = wanted.find(k.name);
        if (it != wanted.end())
            out[it->second] =
                1e9 / kernels::measureOpsPerSec(k, kernelSeconds);
    }
}

/**
 * Re-run the first measured unit with the profiler on. Profiling never
 * feeds back into simulation state, so its statistics must equal the
 * untraced unit's; otherwise the layer split describes another program.
 */
UnitResult
tracedUnit(const Options &opt, std::uint64_t seed,
           const std::vector<UnitResult> &units)
{
    UnitResult traced = runUnit(opt, seed, true);
    std::vector<double> walls;
    for (const UnitResult &u : units)
        walls.push_back(u.wallS);
    Layers &m = traced.layers;
    m["trace.overhead_frac"] = traced.wallS / median(walls) - 1.0;
    addKernelLayers(m);
    require(traced, traced.stats == units.front().stats,
            opt.workload + ": traced unit statistics differ from the "
                           "untraced unit's");
    const double closure = m["trace.closure"];
    require(traced, closure >= 0.5 && closure <= 1.2,
            "trace.closure " + std::to_string(closure) +
                " outside [0.5, 1.2]");
    return traced;
}

/** Peak resident set of this process image, in MB. VmHWM rather than
 *  getrusage: ru_maxrss carries the parent's RSS across fork + exec. */
double
peakRssMb()
{
    std::FILE *status = std::fopen("/proc/self/status", "r");
    if (!status)
        return 0.0;
    char line[256];
    unsigned long long kb = 0;
    while (std::fgets(line, sizeof line, status))
        if (std::sscanf(line, "VmHWM: %llu kB", &kb) == 1)
            break;
    std::fclose(status);
    return double(kb) / 1024.0;
}

std::string
numberList(const std::vector<UnitResult> &units, double UnitResult::*field)
{
    std::string out = "[";
    for (std::size_t i = 0; i < units.size(); ++i)
        out += (i ? ", " : "") + jsonNumber(units[i].*field);
    return out + "]";
}

void
printJson(const Options &opt, const std::vector<UnitResult> &units,
          const UnitResult *pinned, const UnitResult *traced)
{
    std::uint64_t attempted = 0, failed = 0;
    std::vector<std::string> failures;
    for (const UnitResult *u : {pinned, traced})
        if (u)
            failures.insert(failures.end(), u->failures.begin(),
                            u->failures.end());
    for (const UnitResult &u : units) {
        attempted += u.accesses;
        failed += u.failed;
        failures.insert(failures.end(), u.failures.begin(),
                        u.failures.end());
    }
    std::printf("{\n  \"workload\": \"%s\",\n", opt.workload.c_str());
    std::printf("  \"seed\": %llu,\n", (unsigned long long)opt.seed);
    std::printf("  \"units\": %zu,\n", units.size());
    std::printf("  \"setup_s\": %s,\n",
                numberList(units, &UnitResult::setupS).c_str());
    std::printf("  \"wall_s\": %s,\n",
                numberList(units, &UnitResult::wallS).c_str());
    std::printf("  \"accesses_per_unit\": %llu,\n",
                (unsigned long long)units.front().accesses);
    std::printf("  \"peak_rss_mb\": %s,\n",
                jsonNumber(peakRssMb()).c_str());
    std::printf("  \"attempted\": %llu,\n  \"failed\": %llu,\n",
                (unsigned long long)attempted, (unsigned long long)failed);
    std::printf("  \"check_failures\": [");
    for (std::size_t i = 0; i < failures.size(); ++i)
        std::printf("%s\"%s\"", i ? ", " : "",
                    jsonEscape(failures[i]).c_str());
    std::printf("]");
    if (traced) {
        std::printf(",\n  \"layers\": {");
        bool first = true;
        for (const char *name : layerNames) {
            const auto it = traced->layers.find(name);
            const double v = it == traced->layers.end() ? 0.0 : it->second;
            std::printf("%s\n    \"%s\": %s", first ? "" : ",", name,
                        jsonNumber(v).c_str());
            first = false;
        }
        std::printf("\n  }");
    }
    if (pinned) {
        std::printf(",\n  \"stats\": {");
        bool first = true;
        for (const auto &[key, value] : pinned->stats) {
            std::printf("%s\n    \"%s\": %llu", first ? "" : ",",
                        jsonEscape(key).c_str(),
                        (unsigned long long)value);
            first = false;
        }
        std::printf("\n  }");
    }
    std::printf("\n}\n");
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parseArgs(argc, argv);
    // Units run while the budget has room for at least half of one
    // more, so a run measures within half a unit of --seconds. Every
    // unit has its own seed, from the run seed and its index.
    std::vector<UnitResult> units;
    std::vector<std::uint64_t> seeds;
    const auto start = Clock::now();
    double last = 0;
    do {
        const auto t0 = Clock::now();
        seeds.push_back(sweepSeed(std::to_string(units.size()), opt.seed));
        units.push_back(runUnit(opt, seeds.back(), false));
        last = secondsSince(t0);
    } while (secondsSince(start) + last / 2 < opt.seconds);

    UnitResult pinned, traced;
    if (opt.pin)
        pinned = runUnit(opt, pinSeed, false, true);
    if (opt.trace)
        traced = tracedUnit(opt, seeds.front(), units);
    printJson(opt, units, opt.pin ? &pinned : nullptr,
              opt.trace ? &traced : nullptr);
    return 0;
}
