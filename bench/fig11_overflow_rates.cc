/**
 * @file
 * Reproduces paper Fig 11: counter overflows per million memory
 * accesses for SC-64, SC-128 and MorphCtr-128 (ZCC-only), per
 * workload.
 *
 * Expected shape: SC-128 far above SC-64 everywhere (~7x average in
 * the paper); ZCC below SC-64 for sparse/random workloads (mcf,
 * omnetpp, xalancbmk, GAP) but above it for streaming workloads
 * (libquantum, gcc, lbm) — the weakness Fig 14's rebasing repairs.
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
                         modelConfig(TreeConfig::sc128()),
                         modelConfig(TreeConfig::morphZccOnly())},
                        overflowOptions());
}

void
view(const std::vector<SimResult> &results)
{
    banner("Fig 11", "overflows per million accesses: SC-64 / SC-128 "
                     "/ MorphCtr-128 (ZCC-only)");

    std::printf("%-12s %12s %12s %16s\n", "workload", "SC-64",
                "SC-128", "MorphCtr(ZCC)");
    const auto workloads = evaluationWorkloads();
    double sums[3] = {};
    unsigned rows = 0;
    for (std::size_t w = 0; w < workloads.size(); ++w) {
        const std::string &name = workloads[w];
        double rates[3];
        for (int c = 0; c < 3; ++c)
            rates[c] = results[3 * w + c].overflowsPerMillion();
        std::printf("%-12s %12.1f %12.1f %16.1f\n", name.c_str(),
                    rates[0], rates[1], rates[2]);
        for (int c = 0; c < 3; ++c)
            sums[c] += rates[c];
        ++rows;
    }

    std::printf("%-12s %12.1f %12.1f %16.1f\n", "Average",
                sums[0] / rows, sums[1] / rows, sums[2] / rows);
    std::printf("\nSC-128 / SC-64 overflow ratio: %.1fx  [paper: "
                "7.4x]\n",
                sums[0] > 0 ? sums[1] / sums[0] : 0.0);
    std::printf("SC-64 / MorphCtr(ZCC) overflow ratio: %.1fx  [paper: "
                "1.4x]\n",
                sums[2] > 0 ? sums[0] / sums[2] : 0.0);
}

} // namespace

extern const morph::bench::Figure fig11OverflowRates = {
    "fig11_overflow_rates", cells, view};
