/**
 * @file
 * Reproduces paper Fig 14: overflows per million accesses for SC-64
 * and MorphCtr-128 with ZCC-only vs ZCC+Rebasing.
 *
 * Expected shape: rebasing pulls the streaming workloads (libquantum,
 * gcc, lbm) from far above SC-64 down to (or below) its level, while
 * GemsFDTD — whose usage is neither sparse nor uniform — remains the
 * outlier where MorphCtr trails SC-64.
 */

#include "bench_common.hh"

namespace
{

using namespace morph;
using namespace morph::bench;

std::vector<RunConfig>
cells()
{
    return workloadGrid({modelConfig(TreeConfig::sc64()),
                         modelConfig(TreeConfig::morphZccOnly()),
                         modelConfig(TreeConfig::morph())},
                        overflowOptions());
}

void
view(const std::vector<SimResult> &results)
{
    banner("Fig 14", "overflows per million accesses: SC-64 / "
                     "MorphCtr-128 ZCC-only / ZCC+Rebasing");

    std::printf("%-12s %12s %16s %18s %10s\n", "workload", "SC-64",
                "Morph(ZCC)", "Morph(ZCC+Reb)", "rebases/M");
    const auto workloads = evaluationWorkloads();
    double sums[3] = {};
    unsigned rows = 0;
    for (std::size_t w = 0; w < workloads.size(); ++w) {
        const std::string &name = workloads[w];
        double rates[3];
        double rebases = 0;
        for (int c = 0; c < 3; ++c) {
            const SimResult &result = results[3 * w + std::size_t(c)];
            rates[c] = result.overflowsPerMillion();
            if (c == 2) {
                const auto data =
                    result.traffic.accesses(Traffic::Data);
                rebases = data ? 1e6 *
                                     double(result.traffic
                                                .totalRebases()) /
                                     double(data)
                               : 0.0;
            }
        }
        std::printf("%-12s %12.1f %16.1f %18.1f %10.1f\n",
                    name.c_str(), rates[0], rates[1], rates[2],
                    rebases);
        for (int c = 0; c < 3; ++c)
            sums[c] += rates[c];
        ++rows;
    }

    std::printf("%-12s %12.1f %16.1f %18.1f\n", "Average",
                sums[0] / rows, sums[1] / rows, sums[2] / rows);
    std::printf("\nSC-64 / Morph(ZCC+Rebasing) overflow ratio: %.1fx  "
                "[paper: 1.6x]\n",
                sums[2] > 0 ? sums[0] / sums[2] : 99.9);
}

} // namespace

extern const morph::bench::Figure fig14RebasingRates = {
    "fig14_rebasing_rates", cells, view};
