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

int
main()
{
    using namespace morph;
    using namespace morph::bench;

    banner("Fig 5", "impact of counter arity: VAULT / SC-64 / SC-128 "
                    "(+ non-secure bound)");

    // SC-128's overflow catastrophe needs counter steady state, so
    // this figure runs at the overflow footprint scale but timed.
    SimOptions options = perfOptions();
    options.footprintScale = envScale(32.0);

    struct Row
    {
        const char *name;
        SecureModelConfig config;
    };
    std::vector<Row> rows;
    rows.push_back({"Non-Secure", modelConfig(TreeConfig::sc64())});
    rows.back().config.secure = false;
    rows.push_back({"VAULT", modelConfig(TreeConfig::vault())});
    rows.push_back({"SC-64", modelConfig(TreeConfig::sc64())});
    rows.push_back({"SC-128", modelConfig(TreeConfig::sc128())});

    const auto workloads = evaluationWorkloads();
    std::vector<std::vector<double>> ipcs(rows.size());
    std::vector<double> bloat(rows.size(), 0.0);
    std::vector<double> overflow_traffic(rows.size(), 0.0);

    std::vector<RunConfig> cells;
    for (const std::string &name : workloads)
        for (const Row &row : rows)
            cells.push_back(cell(name, row.config, options));
    const std::vector<SimResult> results = runSweep(cells);

    std::size_t next = 0;
    for (std::size_t w = 0; w < workloads.size(); ++w) {
        for (std::size_t r = 0; r < rows.size(); ++r) {
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
    for (std::size_t r = 0; r < rows.size(); ++r) {
        std::printf("%-12s %18.3f %22.3f %24.3f\n", rows[r].name,
                    geomean(ipcs[r]) / sc64_gmean,
                    bloat[r] / double(workloads.size()),
                    overflow_traffic[r] / double(workloads.size()));
    }

    std::printf("\nPaper: VAULT 0.94, SC-64 1.00, SC-128 0.72 "
                "(overflow bloat ~1 access/access);\n");
    std::printf("       non-secure is ~1.4x over SC-64.\n");
    return 0;
}
