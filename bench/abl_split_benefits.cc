/**
 * @file
 * Ablation: where does MorphCtr-128's win come from?
 *
 * The paper's 4x tree reduction is multiplicative (§VII-A): 2x from
 * halving the encryption-counter base (128 counters per line) and 2x
 * from doubling the tree arity. This harness separates the two by
 * mixing counter kinds across the {encryption, tree} roles:
 *
 *   SC-64 enc + SC-64 tree      (the baseline)
 *   Morph enc + SC-64 tree      (base-halving benefit only)
 *   SC-64 enc + Morph tree      (arity-doubling benefit only)
 *   Morph enc + Morph tree      (the full design)
 *
 * DESIGN.md lists this decomposition as a design-choice ablation.
 */

#include "bench_common.hh"
#include "integrity/tree_geometry.hh"

namespace
{

using namespace morph;
using namespace morph::bench;

struct Variant
{
    const char *name;
    TreeConfig config;
};

const Variant variants[] = {
    {"SC64-enc + SC64-tree",
     {"sc/sc", CounterKind::SC64, {CounterKind::SC64}}},
    {"Morph-enc + SC64-tree",
     {"m/sc", CounterKind::Morph, {CounterKind::SC64}}},
    {"SC64-enc + Morph-tree",
     {"sc/m", CounterKind::SC64, {CounterKind::Morph}}},
    {"Morph-enc + Morph-tree",
     {"m/m", CounterKind::Morph, {CounterKind::Morph}}},
};

// The random-access workloads, where tree traversal dominates.
const char *const workloads[] = {"mcf", "omnetpp", "bc-twit", "pr-web",
                                 "soplex", "sphinx"};

std::vector<RunConfig>
cells()
{
    const SimOptions options = perfOptions();
    std::vector<RunConfig> cells;
    for (const Variant &v : variants)
        for (const char *w : workloads)
            cells.push_back(cell(w, modelConfig(v.config), options));
    return cells;
}

void
view(const std::vector<SimResult> &results)
{
    banner("Ablation", "encryption-base halving vs tree-arity "
                       "doubling");

    // Geometry decomposition at 16 GB.
    std::printf("%-24s %14s %12s %8s\n", "variant", "enc counters",
                "tree size", "levels");
    for (const Variant &v : variants) {
        const TreeGeometry geom(16ull << 30, v.config);
        std::printf("%-24s %11.0f MB %9.2f MB %8u\n", v.name,
                    double(geom.encryptionBytes()) / double(1 << 20),
                    double(geom.treeBytes()) / double(1 << 20),
                    geom.treeLevels());
    }

    // Performance decomposition.
    std::printf("\n%-24s", "variant");
    for (const char *w : workloads)
        std::printf(" %9s", w);
    std::printf(" %9s\n", "gmean");

    // Normalized to variants[0], the SC-64 baseline.
    const std::size_t n = std::size(workloads);
    for (std::size_t v = 0; v < std::size(variants); ++v) {
        std::printf("%-24s", variants[v].name);
        std::vector<double> normalized;
        for (std::size_t i = 0; i < n; ++i) {
            normalized.push_back(results[v * n + i].ipc / results[i].ipc);
            std::printf(" %9.3f", normalized.back());
        }
        std::printf(" %9.3f\n", geomean(normalized));
    }

    std::printf("\nExpected: each half contributes a share; the full "
                "design compounds them (paper: 2x * 2x = 4x tree).\n");
}

} // namespace

extern const morph::bench::Figure ablSplitBenefits = {
    "abl_split_benefits", cells, view};
