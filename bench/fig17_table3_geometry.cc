/**
 * @file
 * Reproduces paper Fig 1, Fig 17 and Table III: integrity-tree level
 * footprints, heights, and storage overheads at 16 GB for
 * Commercial-SGX, VAULT, SC-64 and MorphCtr-128.
 *
 * These are closed-form geometry results and must match the paper
 * exactly.
 */

#include <cinttypes>

#include "bench_common.hh"
#include "integrity/tree_geometry.hh"

namespace
{

using namespace morph;
using namespace morph::bench;

std::string
human(std::uint64_t bytes)
{
    char buffer[32];
    if (bytes >= (1ull << 30) && bytes % (1ull << 30) == 0)
        std::snprintf(buffer, sizeof(buffer), "%" PRIu64 " GB",
                      bytes >> 30);
    else if (bytes >= (1ull << 20))
        std::snprintf(buffer, sizeof(buffer), "%.6g MB",
                      double(bytes) / double(1ull << 20));
    else if (bytes >= (1ull << 10))
        std::snprintf(buffer, sizeof(buffer), "%.6g KB",
                      double(bytes) / double(1ull << 10));
    else
        std::snprintf(buffer, sizeof(buffer), "%" PRIu64 " B", bytes);
    return buffer;
}

void
report(const TreeConfig &config, std::uint64_t mem_bytes)
{
    const TreeGeometry geom(mem_bytes, config);
    std::printf("\n%-16s (arity L0=%u", config.name.c_str(),
                geom.levels()[0].arity);
    for (std::size_t i = 1; i < geom.levels().size(); ++i)
        std::printf("/%u", geom.levels()[i].arity);
    std::printf(")\n");

    std::printf("  encryption counters: %12s  (%.4f%% of data)\n",
                human(geom.encryptionBytes()).c_str(),
                100.0 * double(geom.encryptionBytes()) /
                    double(mem_bytes));
    std::printf("  integrity tree:      %12s  (%.4f%% of data), "
                "%u levels\n",
                human(geom.treeBytes()).c_str(),
                100.0 * double(geom.treeBytes()) / double(mem_bytes),
                geom.treeLevels());
    for (std::size_t i = 1; i < geom.levels().size(); ++i)
        std::printf("    tree level %zu: %12s\n", i,
                    human(geom.levels()[i].bytes).c_str());
}

void
view(const std::vector<SimResult> &)
{
    constexpr std::uint64_t mem = 16ull << 30;
    banner("Fig 1 / Fig 17 / Table III",
           "integrity-tree geometry and storage overheads, 16 GB");

    report(TreeConfig::sgx(), mem);
    report(TreeConfig::vault(), mem);
    report(TreeConfig::sc64(), mem);
    report(TreeConfig::morph(), mem);

    const TreeGeometry sc64(mem, TreeConfig::sc64());
    const TreeGeometry vault(mem, TreeConfig::vault());
    const TreeGeometry morphg(mem, TreeConfig::morph());
    std::printf("\nFig 1 ratios: MorphTree is %.2fx smaller than SC-64"
                " tree, %.2fx smaller than VAULT tree\n",
                double(sc64.treeBytes()) / double(morphg.treeBytes()),
                double(vault.treeBytes()) / double(morphg.treeBytes()));
    std::printf("Paper:        4x and 8.5x\n");
}

} // namespace

extern const morph::bench::Figure fig17Table3Geometry = {
    "fig17_table3_geometry", nullptr, view};
