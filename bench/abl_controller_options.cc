/**
 * @file
 * Ablation: controller and DRAM options around the paper's design
 * (its §VIII "orthogonal proposals" discussion, quantified).
 *
 *  - speculative verification (PoisonIvy/ASE): removes tree-walk
 *    latency but not bandwidth — the paper argues compact trees
 *    attack the bandwidth half; combining both stacks benefits.
 *  - next-entry counter prefetch;
 *  - type-aware metadata insertion (Lee et al.);
 *  - Bonsai MAC-tree (8-ary tree-of-MACs) as the structural baseline.
 */

#include "bench_common.hh"

namespace
{

using namespace morph;
using namespace morph::bench;

const char *const workloads[] = {"mcf", "omnetpp", "soplex", "bc-twit",
                                 "libquantum", "gcc"};

struct Variant
{
    const char *name;
    SecureModelConfig config;
};

std::vector<Variant>
controllerVariants()
{
    std::vector<Variant> variants;
    variants.push_back({"SC-64 baseline",
                        modelConfig(TreeConfig::sc64())});
    variants.push_back({"BMT-8 (tree of MACs)",
                        modelConfig(TreeConfig::bonsaiMacTree())});
    variants.push_back({"SC-64 + spec-verify",
                        modelConfig(TreeConfig::sc64())});
    variants.back().config.speculativeVerification = true;
    variants.push_back({"SC-64 + ctr-prefetch",
                        modelConfig(TreeConfig::sc64())});
    variants.back().config.counterPrefetch = true;
    variants.push_back({"SC-64 + demote-enc",
                        modelConfig(TreeConfig::sc64())});
    variants.back().config.demoteEncCounters = true;
    variants.push_back({"SC-64+R (rebasing only)",
                        modelConfig(TreeConfig::sc64Rebased())});
    variants.push_back({"MorphCtr-128",
                        modelConfig(TreeConfig::morph())});
    variants.push_back({"MorphCtr-128 + spec-verify",
                        modelConfig(TreeConfig::morph())});
    variants.back().config.speculativeVerification = true;
    return variants;
}

std::vector<RunConfig>
cells()
{
    const SimOptions options = perfOptions();
    std::vector<RunConfig> cells;
    for (const Variant &v : controllerVariants())
        for (const char *w : workloads)
            cells.push_back(cell(w, v.config, options));
    return cells;
}

void
view(const std::vector<SimResult> &results)
{
    banner("Ablation", "controller options and tree structures");

    std::printf("%-28s", "variant");
    for (const char *w : workloads)
        std::printf(" %10s", w);
    std::printf(" %8s %8s\n", "gmean", "bloat");

    // Normalized to variants[0], the SC-64 baseline.
    const std::vector<Variant> variants = controllerVariants();
    const std::size_t n = std::size(workloads);
    for (std::size_t v = 0; v < variants.size(); ++v) {
        std::printf("%-28s", variants[v].name);
        std::vector<double> normalized;
        double bloat = 0;
        for (std::size_t i = 0; i < n; ++i) {
            const SimResult &result = results[v * n + i];
            normalized.push_back(result.ipc / results[i].ipc);
            bloat += result.bloat();
            std::printf(" %10.3f", normalized.back());
        }
        std::printf(" %8.3f %8.3f\n", geomean(normalized),
                    bloat / double(n));
    }

    std::printf("\nExpected: spec-verify helps both designs (latency) "
                "but leaves the bandwidth bloat untouched;\n"
                "MorphCtr + spec-verify compounds; BMT-8 trails every "
                "counter tree (deep 8-ary walks).\n");
}

} // namespace

extern const morph::bench::Figure ablControllerOptions = {
    "abl_controller_options", cells, view};
