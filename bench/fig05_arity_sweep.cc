/**
 * @file
 * Reproduces paper Fig 5: the arity-sweep motivation experiment —
 * performance and memory traffic of VAULT, SC-64 and SC-128 (plus
 * the non-secure bound), averaged over the evaluation workloads.
 *
 * Expected shape: SC-64 beats VAULT (fewer tree levels), but naive
 * SC-128 collapses under counter-overflow traffic (paper: -28% vs
 * SC-64 with ~1 extra overflow access per data access).
 */

#include "bench_common.hh"

namespace
{

using namespace morph;
using namespace morph::bench;

const char *const rows[] = {"Non-Secure", "VAULT", "SC-64", "SC-128"};

std::vector<RunConfig>
cells()
{
    // SC-128's overflow catastrophe needs counter steady state, so
    // this figure runs at the overflow footprint scale but timed.
    SimOptions options = perfOptions();
    options.footprintScale = envScale(32.0);
    SecureModelConfig insecure = modelConfig(TreeConfig::sc64());
    insecure.secure = false;
    return workloadGrid({insecure, modelConfig(TreeConfig::vault()),
                         modelConfig(TreeConfig::sc64()),
                         modelConfig(TreeConfig::sc128())},
                        options);
}

void
view(const std::vector<SimResult> &results)
{
    banner("Fig 5", "impact of counter arity: VAULT / SC-64 / SC-128 "
                    "(+ non-secure bound)");

    const auto workloads = evaluationWorkloads();
    std::vector<std::vector<double>> ipcs(std::size(rows));
    std::vector<double> bloat(std::size(rows), 0.0);
    std::vector<double> overflow_traffic(std::size(rows), 0.0);

    std::size_t next = 0;
    for (std::size_t w = 0; w < workloads.size(); ++w) {
        for (std::size_t r = 0; r < std::size(rows); ++r) {
            const SimResult &result = results[next++];
            ipcs[r].push_back(result.ipc);
            bloat[r] += result.bloat();
            const double data =
                double(result.traffic.accesses(Traffic::Data));
            overflow_traffic[r] +=
                data > 0 ? double(result.traffic.accesses(
                               Traffic::Overflow)) /
                               data
                         : 0.0;
        }
    }

    // Normalize performance to SC-64 (row 2), as in the paper.
    std::printf("%-12s %18s %22s %24s\n", "config",
                "normalized perf", "mem access/data access",
                "overflow access/data");
    const double sc64_gmean = geomean(ipcs[2]);
    for (std::size_t r = 0; r < std::size(rows); ++r) {
        std::printf("%-12s %18.3f %22.3f %24.3f\n", rows[r],
                    geomean(ipcs[r]) / sc64_gmean,
                    bloat[r] / double(workloads.size()),
                    overflow_traffic[r] / double(workloads.size()));
    }

    std::printf("\nPaper: VAULT 0.94, SC-64 1.00, SC-128 0.72 "
                "(overflow bloat ~1 access/access);\n");
    std::printf("       non-secure is ~1.4x over SC-64.\n");
}

} // namespace

extern const morph::bench::Figure fig05AritySweep = {
    "fig05_arity_sweep", cells, view};
