/**
 * @file
 * Ablation: persist-traffic overhead of the NVM crash-consistency
 * policies (strict vs. lazy epoch-batched root updates) on
 * MorphCtr-128.
 *
 * Strict persists every counter/tree mutation and re-commits the tree
 * root each time: trivially recoverable, but the persist stream
 * scales with metadata mutations, not data writes. Lazy persists only
 * on dirty eviction behind an undo log and commits the root once per
 * epoch, trading bounded rollback (at most one epoch of writes) for
 * far fewer persists. Expected shape: strict's persists/write well
 * above 1 on write-heavy workloads; lazy within a small factor of the
 * data write stream, shrinking further as the epoch grows.
 *
 * The persist domain is a pure observer, so IPC and DRAM traffic are
 * identical across all rows of one workload; only the persist
 * counters differ.
 */

#include "bench_common.hh"

namespace
{

using namespace morph;
using namespace morph::bench;

constexpr std::uint64_t epochs[] = {256, 4096};

void
printRow(const char *label, const SimResult &result)
{
    const double writes =
        double(result.traffic.writes[unsigned(Traffic::Data)]);
    auto per = [&](std::uint64_t count) {
        return writes > 0 ? double(count) / writes : 0.0;
    };
    std::printf("  %-14s %9.3f %9.3f %9.3f %10llu %9llu\n", label,
                per(result.persist.linePersists),
                per(result.persist.logAppends),
                per(result.persist.rootPersists),
                (unsigned long long)result.persist.linePersists,
                (unsigned long long)result.persist.barriers);
}

std::vector<RunConfig>
cells()
{
    std::vector<SecureModelConfig> rows(1 + std::size(epochs),
                                        modelConfig(TreeConfig::morph()));
    rows[0].persist = {.enabled = true, .policy = PersistPolicy::Strict};
    for (std::size_t e = 0; e < std::size(epochs); ++e)
        rows[1 + e].persist = {.enabled = true,
                               .policy = PersistPolicy::Lazy,
                               .epochWrites = epochs[e]};
    return workloadGrid(rows, perfOptions());
}

void
view(const std::vector<SimResult> &results)
{
    banner("Ablation", "NVM persist traffic: strict vs. lazy root"
                       " updates (MorphCtr-128)");

    const auto workloads = evaluationWorkloads();
    const std::size_t rows_per_workload = 1 + std::size(epochs);
    std::printf("%-16s %9s %9s %9s %10s %9s\n", "",
                "prst/wr", "log/wr", "root/wr", "persists",
                "barriers");

    double strict_sum = 0.0;
    double lazy_sum[std::size(epochs)] = {};
    for (std::size_t w = 0; w < workloads.size(); ++w) {
        std::printf("%s\n", workloads[w].c_str());
        const SimResult &strict = results[rows_per_workload * w];
        printRow("strict", strict);
        strict_sum += strict.persistsPerWrite();
        for (std::size_t e = 0; e < std::size(epochs); ++e) {
            const SimResult &lazy =
                results[rows_per_workload * w + 1 + e];
            char label[32];
            std::snprintf(label, sizeof label, "lazy/%llu",
                          (unsigned long long)epochs[e]);
            printRow(label, lazy);
            lazy_sum[e] += lazy.persistsPerWrite();
        }
    }

    const double n = double(workloads.size());
    std::printf("\nAverage persists per data write: strict %.3f",
                strict_sum / n);
    for (std::size_t e = 0; e < std::size(epochs); ++e)
        std::printf(", lazy/%llu %.3f",
                    (unsigned long long)epochs[e], lazy_sum[e] / n);
    std::printf("\nLazy/%llu cuts persist traffic %.1f%% below"
                " strict.\n",
                (unsigned long long)epochs[std::size(epochs) - 1],
                100.0 * (1.0 - lazy_sum[std::size(epochs) - 1] /
                                   strict_sum));
}

} // namespace

extern const morph::bench::Figure ablPersistOverhead = {
    "abl_persist_overhead", cells, view};
