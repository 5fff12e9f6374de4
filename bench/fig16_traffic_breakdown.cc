/**
 * @file
 * Reproduces paper Fig 16: memory traffic per data access, broken
 * into {Data, Ctr_Encr, Ctr_1, Ctr_2, Ctr_3&Up, Overflow}, for
 * VAULT, SC-64 and MorphCtr-128.
 *
 * Expected shape: VAULT's tall Ctr_1..Ctr_3&Up stack (6-level tree),
 * SC-64 in between, MorphCtr-128 lowest with traffic only at
 * Ctr_Encr/Ctr_1 — its level 2 fits in the metadata cache.
 */

#include "bench_common.hh"

namespace
{

using namespace morph;
using namespace morph::bench;

void
printRow(const char *config, const SimResult &result)
{
    const double data = double(result.traffic.accesses(Traffic::Data));
    auto per = [&](Traffic t) {
        return data > 0 ? double(result.traffic.accesses(t)) / data
                        : 0.0;
    };
    std::printf("  %-14s %6.3f %9.3f %7.3f %7.3f %9.3f %9.3f | "
                "total %.3f\n",
                config, per(Traffic::Data), per(Traffic::CtrEncr),
                per(Traffic::Ctr1), per(Traffic::Ctr2),
                per(Traffic::Ctr3Up), per(Traffic::Overflow),
                result.bloat());
}

void
view(const std::vector<SimResult> &results)
{
    banner("Fig 16", "memory accesses per data access, by category");

    std::printf("%-14s %8s %9s %7s %7s %9s %9s\n", "", "Data",
                "Ctr_Encr", "Ctr_1", "Ctr_2", "Ctr_3&Up", "Overflow");

    const auto workloads = evaluationWorkloads();
    double bloat_sums[3] = {};
    unsigned rows = 0;
    for (std::size_t w = 0; w < workloads.size(); ++w) {
        std::printf("%s\n", workloads[w].c_str());
        const SimResult &vault = results[3 * w + 0];
        const SimResult &sc64 = results[3 * w + 1];
        const SimResult &morphr = results[3 * w + 2];
        printRow("VAULT", vault);
        printRow("SC-64", sc64);
        printRow("MorphCtr-128", morphr);
        bloat_sums[0] += vault.bloat();
        bloat_sums[1] += sc64.bloat();
        bloat_sums[2] += morphr.bloat();
        ++rows;
    }

    std::printf("\nAverage bloat: VAULT %.3f, SC-64 %.3f, "
                "MorphCtr-128 %.3f\n",
                bloat_sums[0] / rows, bloat_sums[1] / rows,
                bloat_sums[2] / rows);
    std::printf("Paper: MorphCtr-128 cuts traffic 8.8%% below SC-64; "
                "VAULT adds 9.7%% above it.\n");
    std::printf("Measured: MorphCtr %+.1f%%, VAULT %+.1f%% vs SC-64\n",
                100.0 * (bloat_sums[2] / bloat_sums[1] - 1.0),
                100.0 * (bloat_sums[0] / bloat_sums[1] - 1.0));
}

} // namespace

extern const morph::bench::Figure fig16TrafficBreakdown = {
    "fig16_traffic_breakdown", morph::bench::performanceCells, view};
