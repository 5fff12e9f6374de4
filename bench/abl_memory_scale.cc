/**
 * @file
 * Ablation: how the designs scale with protected-memory capacity.
 *
 * The paper motivates compact trees with scaling ("as memories scale
 * to larger sizes"): every doubling of capacity doubles each tree
 * level, while the on-chip metadata cache stays fixed. This harness
 * sweeps 4 GB - 64 GB, reporting tree geometry for each design and
 * the measured MorphCtr-128 speedup on a random-access workload.
 */

#include "bench_common.hh"
#include "integrity/tree_geometry.hh"

namespace
{

using namespace morph;
using namespace morph::bench;

constexpr unsigned shifts[] = {2, 3, 4, 5};

// Measured speedup on mcf-like traffic as capacity grows. The
// footprint grows with memory so the counter working set scales.
std::vector<RunConfig>
cells()
{
    const SimOptions options = perfOptions();
    std::vector<RunConfig> cells;
    for (const unsigned shift : shifts) {
        for (const TreeConfig &tree :
             {TreeConfig::sc64(), TreeConfig::morph()}) {
            cells.push_back(cell("mcf", modelConfig(tree), options));
            cells.back().secmem.memBytes = 1ull << (30 + shift);
        }
    }
    return cells;
}

void
view(const std::vector<SimResult> &results)
{
    banner("Ablation", "scaling with protected-memory capacity");

    std::printf("%-8s %14s %14s %14s %10s\n", "memory", "VAULT tree",
                "SC-64 tree", "Morph tree", "levels");
    for (unsigned shift = 2; shift <= 6; ++shift) {
        const std::uint64_t mem = 1ull << (30 + shift);
        const TreeGeometry vault(mem, TreeConfig::vault());
        const TreeGeometry sc64(mem, TreeConfig::sc64());
        const TreeGeometry morphg(mem, TreeConfig::morph());
        std::printf("%3llu GB   %11.2f MB %11.2f MB %11.2f MB "
                    "%2u/%u/%u\n",
                    (unsigned long long)(mem >> 30),
                    double(vault.treeBytes()) / double(1 << 20),
                    double(sc64.treeBytes()) / double(1 << 20),
                    double(morphg.treeBytes()) / double(1 << 20),
                    vault.treeLevels(), sc64.treeLevels(),
                    morphg.treeLevels());
    }

    std::printf("\n%-8s %12s %14s %12s\n", "memory", "SC-64 IPC",
                "Morph IPC", "speedup");
    for (std::size_t s = 0; s < std::size(shifts); ++s) {
        const double sc64_ipc = results[2 * s].ipc;
        const double morph_ipc = results[2 * s + 1].ipc;
        std::printf("%3llu GB   %12.3f %14.3f %+11.1f%%\n",
                    1ull << shifts[s], sc64_ipc, morph_ipc,
                    (morph_ipc / sc64_ipc - 1.0) * 100);
    }

    std::printf("\nExpected: the Morph advantage persists (and the "
                "tree-size gap widens) as capacity scales.\n");
}

} // namespace

extern const morph::bench::Figure ablMemoryScale = {
    "abl_memory_scale", cells, view};
