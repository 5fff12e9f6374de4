#include "workloads/workload_db.hh"

#include <algorithm>

#include "common/log.hh"

namespace morph
{

const std::vector<WorkloadSpec> &
workloadTable()
{
    // Read/write PKI and footprints are the paper's Table II; pattern
    // classes follow its qualitative workload descriptions: mcf /
    // omnetpp / xalancbmk and the Twitter graph kernels make random
    // accesses over large working sets; libquantum / gcc / lbm and
    // most HPC codes stream; web graphs are heavily skewed; GemsFDTD
    // is the paper's "neither sparse nor uniform" outlier.
    // Fields: name, suite, readPKI, writePKI, footprintGB, pattern,
    // page-zipf, write-hot-fraction, write-zipf. Random and skewed
    // workloads write a small popular subset of their lines (sparse
    // counter usage); streaming workloads write their whole sweep
    // (uniform usage).
    static const std::vector<WorkloadSpec> table = {
        {"mcf", "SPEC", 69, 2, 7.5, Pattern::Random, 0.8, 0.01, 0.8},
        {"omnetpp", "SPEC", 18, 9, 0.6, Pattern::Random, 0.8, 0.01, 0.8},
        {"xalancbmk", "SPEC", 4, 3, 1.1, Pattern::Random, 0.8, 0.01,
         0.8},
        {"GemsFDTD", "SPEC", 19, 8, 3.1, Pattern::Mixed, 0.8},
        {"milc", "SPEC", 19, 7, 2.3, Pattern::Streaming, 0.8},
        {"soplex", "SPEC", 28, 6, 1.0, Pattern::HotCold, 0.8, 0.05,
         0.9},
        {"bzip2", "SPEC", 5, 1.4, 1.2, Pattern::Streaming, 0.8},
        {"zeusmp", "SPEC", 5, 1.9, 1.9, Pattern::Streaming, 0.8},
        {"sphinx", "SPEC", 14, 1.4, 0.1, Pattern::HotCold, 0.8, 0.05,
         0.9},
        {"leslie3d", "SPEC", 16, 5, 0.3, Pattern::Streaming, 0.8},
        {"libquantum", "SPEC", 24, 10, 0.1, Pattern::Streaming, 0.8},
        {"gcc", "SPEC", 48, 53, 0.7, Pattern::Streaming, 0.8},
        {"lbm", "SPEC", 28, 21, 1.6, Pattern::Streaming, 0.8},
        {"wrf", "SPEC", 4, 2, 1.6, Pattern::Streaming, 0.8},
        {"cactusADM", "SPEC", 5, 1.5, 1.6, Pattern::Streaming, 0.8},
        {"dealII", "SPEC", 1.7, 0.5, 0.2, Pattern::HotCold, 0.8, 0.05,
         0.9},
        {"bc-twit", "GAP", 61, 24, 9.3, Pattern::Random, 0.8, 0.02,
         0.8},
        {"pr-twit", "GAP", 94, 4, 11.2, Pattern::Random, 0.8, 0.02,
         0.8},
        {"cc-twit", "GAP", 89, 7, 7.0, Pattern::Random, 0.8, 0.02, 0.8},
        {"bc-web", "GAP", 13, 7, 12.0, Pattern::HotCold, 0.95, 0.05,
         0.9},
        {"pr-web", "GAP", 16, 3, 12.2, Pattern::HotCold, 0.95, 0.05,
         0.9},
        {"cc-web", "GAP", 9, 1.5, 7.8, Pattern::HotCold, 0.95, 0.05,
         0.9},
    };
    return table;
}

const std::vector<MixSpec> &
mixTable()
{
    static const std::vector<MixSpec> table = {
        {"mix1", {"mcf", "libquantum", "soplex", "GemsFDTD"}},
        {"mix2", {"omnetpp", "gcc", "milc", "bc-twit"}},
        {"mix3", {"xalancbmk", "lbm", "sphinx", "pr-web"}},
        {"mix4", {"mcf", "bzip2", "leslie3d", "cc-twit"}},
        {"mix5", {"libquantum", "zeusmp", "dealII", "bc-web"}},
        {"mix6", {"soplex", "wrf", "cactusADM", "pr-twit"}},
    };
    return table;
}

const WorkloadSpec *
findWorkload(const std::string &name)
{
    const auto &table = workloadTable();
    const auto it = std::find_if(table.begin(), table.end(),
                                 [&](const WorkloadSpec &spec) {
                                     return spec.name == name;
                                 });
    return it == table.end() ? nullptr : &*it;
}

const MixSpec *
findMix(const std::string &name)
{
    for (const MixSpec &mix : mixTable())
        if (mix.name == name)
            return &mix;
    return nullptr;
}

GeneratorParams
workloadParams(const WorkloadSpec &spec, unsigned core, unsigned cores,
               std::uint64_t mem_bytes, std::uint64_t seed,
               double footprint_scale)
{
    if (core >= cores)
        fatal("workload: core %u out of range (%u cores)", core, cores);
    if (footprint_scale < 1.0)
        fatal("workload: footprint scale must be >= 1");

    const std::uint64_t region_lines = mem_bytes / lineBytes / cores;
    // Table II footprints cover all four cores; each rate-mode copy
    // owns a quarter, clamped to its region.
    const double per_core_gb =
        spec.footprintGb / double(cores) / footprint_scale;
    std::uint64_t footprint_lines =
        std::uint64_t(per_core_gb * (1ull << 30) / lineBytes);
    footprint_lines = std::clamp<std::uint64_t>(
        footprint_lines, linesPerPage, region_lines);

    GeneratorParams params;
    params.regionBaseLine = LineAddr(core) * region_lines;
    params.regionLines = region_lines;
    params.footprintLines = footprint_lines;
    params.readPki = spec.readPki;
    params.writePki = spec.writePki;
    params.zipfExponent = spec.zipfExponent;
    params.writeHotFraction = spec.writeHotFraction;
    params.writeZipfExponent = spec.writeZipfExponent;
    params.seed = seed * 0x1000193u + core * 0x9e370001u + 0x811c9dc5u;
    return params;
}

std::unique_ptr<TraceSource>
makeWorkloadTrace(const WorkloadSpec &spec, unsigned core,
                  unsigned cores, std::uint64_t mem_bytes,
                  std::uint64_t seed, double footprint_scale)
{
    return makeGenerator(spec.pattern,
                         workloadParams(spec, core, cores, mem_bytes, seed,
                                        footprint_scale));
}

} // namespace morph
