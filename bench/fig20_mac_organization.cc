/**
 * @file
 * Reproduces paper Fig 20: sensitivity to the MAC organization —
 * Synergy-style in-line MACs (free with the data access) vs separate
 * MAC storage (one extra access per data access).
 *
 * Expected shape: both SC-64 and MorphCtr-128 lose heavily with
 * separate MACs (paper: ~29%); MorphCtr's relative speedup shrinks
 * slightly (paper: +4.7% vs +6.3%) because counters are a smaller
 * share of total traffic.
 */

#include "bench_common.hh"

namespace
{

using namespace morph;
using namespace morph::bench;

constexpr bool organizations[] = {false, true}; // in-line MACs?

std::vector<RunConfig>
cells()
{
    const SimOptions options = perfOptions();
    const TreeConfig designs[] = {TreeConfig::sc64(), TreeConfig::morph()};

    const auto workloads = evaluationWorkloads();
    std::vector<RunConfig> cells;
    for (const bool inline_macs : organizations) {
        for (const std::string &name : workloads) {
            for (const TreeConfig &tree : designs) {
                cells.push_back(cell(name, modelConfig(tree), options));
                cells.back().secmem.inlineMacs = inline_macs;
            }
        }
    }
    return cells;
}

void
view(const std::vector<SimResult> &results)
{
    banner("Fig 20", "Separate MACs vs In-Line MACs (normalized to "
                     "SC-64 in-line)");

    const auto workloads = evaluationWorkloads();
    auto ipc = [&](std::size_t org, std::size_t w, std::size_t design) {
        return results[(org * workloads.size() + w) * 2 + design].ipc;
    };

    // Baseline: SC-64 with in-line MACs (organizations[1]).
    std::printf("%-16s %12s %16s %18s\n", "MAC organization", "SC-64",
                "MorphCtr-128", "Morph speedup");
    for (std::size_t o = 0; o < std::size(organizations); ++o) {
        std::vector<double> sc64_norm, morph_norm;
        for (std::size_t w = 0; w < workloads.size(); ++w) {
            sc64_norm.push_back(ipc(o, w, 0) / ipc(1, w, 0));
            morph_norm.push_back(ipc(o, w, 1) / ipc(1, w, 0));
        }
        const double s = geomean(sc64_norm);
        const double m = geomean(morph_norm);
        std::printf("%-16s %12.3f %16.3f %+17.1f%%\n",
                    organizations[o] ? "In-Line (Synergy)" : "Separate",
                    s, m, (m / s - 1.0) * 100);
    }

    std::printf("\nPaper: separate MACs cost both designs ~29%%; Morph "
                "speedup 4.7%% (separate) vs 6.3%% (in-line).\n");
}

} // namespace

extern const morph::bench::Figure fig20MacOrganization = {
    "fig20_mac_organization", cells, view};
