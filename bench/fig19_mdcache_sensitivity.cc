/**
 * @file
 * Reproduces paper Fig 19: sensitivity of the MorphCtr-128 speedup to
 * the metadata cache size (64 KB / 128 KB / 256 KB).
 *
 * Expected shape: the smaller the cache, the larger MorphCtr's win
 * (paper: +11% at 64 KB, +6.3% at 128 KB, +3.3% at 256 KB) — a
 * compact tree matters most when cache is scarce. The paper also
 * notes MorphCtr at 64 KB roughly matches SC-64 at 128 KB.
 */

#include "bench_common.hh"

namespace
{

using namespace morph;
using namespace morph::bench;

constexpr std::size_t sizes[] = {64 * 1024, 128 * 1024, 256 * 1024};

std::vector<RunConfig>
cells()
{
    // Full footprints: the trend comes from whole tree levels
    // crossing the cache-capacity boundary (SC-64's 64 KB level 2
    // fits a 256 KB cache but not a 64 KB one), which footprint
    // scaling would distort.
    SimOptions options = perfOptions();
    options.footprintScale = envScale(1.0);
    const TreeConfig designs[] = {TreeConfig::sc64(), TreeConfig::morph()};

    const auto workloads = evaluationWorkloads();
    std::vector<RunConfig> cells;
    for (const std::size_t size : sizes) {
        for (const std::string &name : workloads) {
            for (const TreeConfig &tree : designs) {
                cells.push_back(cell(name, modelConfig(tree), options));
                cells.back().secmem.metadataCacheBytes = size;
            }
        }
    }
    return cells;
}

void
view(const std::vector<SimResult> &results)
{
    banner("Fig 19", "speedup vs metadata cache size (normalized to "
                     "SC-64 @ 128 KB)");

    const auto workloads = evaluationWorkloads();
    auto ipc = [&](std::size_t s, std::size_t w, std::size_t design) {
        return results[(s * workloads.size() + w) * 2 + design].ipc;
    };

    // Baseline: SC-64 with the default 128 KB cache (sizes[1]).
    std::printf("%-10s %12s %16s %18s\n", "cache", "SC-64",
                "MorphCtr-128", "Morph speedup");
    for (std::size_t s = 0; s < std::size(sizes); ++s) {
        std::vector<double> sc64_norm, morph_norm;
        for (std::size_t w = 0; w < workloads.size(); ++w) {
            sc64_norm.push_back(ipc(s, w, 0) / ipc(1, w, 0));
            morph_norm.push_back(ipc(s, w, 1) / ipc(1, w, 0));
        }
        const double sc = geomean(sc64_norm);
        const double m = geomean(morph_norm);
        std::printf("%4zu KB    %12.3f %16.3f %+17.1f%%\n",
                    sizes[s] / 1024, sc, m, (m / sc - 1.0) * 100);
    }

    std::printf("\nPaper: +11%% @ 64 KB, +6.3%% @ 128 KB, +3.3%% @ "
                "256 KB.\n");
}

} // namespace

extern const morph::bench::Figure fig19MdcacheSensitivity = {
    "fig19_mdcache_sensitivity", cells, view};
