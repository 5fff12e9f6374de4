/**
 * @file
 * Reproduces paper Fig 7: histogram of the fraction of a counter
 * cacheline in use at the moment it overflows, for the SC-64 design,
 * averaged over the 28 evaluation workloads.
 *
 * The paper's observation — overflows cluster below 25% usage
 * (integrity-tree entries over interspersed hot/cold pages) and at
 * 100% usage (streaming encryption counters) — is what motivates the
 * ZCC and MCR representations.
 */

#include "bench_common.hh"

namespace
{

using namespace morph;
using namespace morph::bench;

std::vector<RunConfig>
cells()
{
    return workloadGrid({modelConfig(TreeConfig::sc64())},
                        overflowOptions());
}

void
view(const std::vector<SimResult> &results)
{
    banner("Fig 7", "fraction of counter-cacheline used at overflow "
                    "(SC-64, all workloads)");

    Histogram combined(0.0, 1.0 + 1e-9, 20);
    std::uint64_t workloads_with_overflows = 0;
    for (const SimResult &result : results) {
        const Histogram &h = result.traffic.usageAtOverflow;
        if (h.count() == 0)
            continue;
        ++workloads_with_overflows;
        // Weight each workload equally (the paper averages fractions).
        for (unsigned b = 0; b < h.size(); ++b)
            combined.record(h.bucketLo(b) + 0.024,
                            std::uint64_t(h.fraction(b) * 1e6));
    }

    std::printf("%-12s %-10s\n", "usage", "fraction of overflows");
    double below_quarter = 0, above_three_quarters = 0;
    for (unsigned b = 0; b < combined.size(); ++b) {
        const double fraction = combined.fraction(b);
        std::printf("%6.2f-%.2f  %6.3f  ", combined.bucketLo(b),
                    combined.bucketLo(b) + 0.05, fraction);
        for (int stars = int(fraction * 100); stars > 0; --stars)
            std::printf("*");
        std::printf("\n");
        if (combined.bucketLo(b) < 0.25)
            below_quarter += fraction;
        if (combined.bucketLo(b) >= 0.75)
            above_three_quarters += fraction;
    }

    std::printf("\nOverflows at <25%% usage: %.1f%%, at >=75%% usage: "
                "%.1f%% (combined %.1f%%)\n",
                below_quarter * 100, above_three_quarters * 100,
                (below_quarter + above_three_quarters) * 100);
    std::printf("Paper: >75%% of overflows in these two modes for 27 "
                "of 28 workloads.\n");
    std::printf("(workloads with any overflow at this scale: %llu of "
                "28)\n",
                (unsigned long long)workloads_with_overflows);
}

} // namespace

extern const morph::bench::Figure fig07UsageHistogram = {
    "fig07_usage_histogram", cells, view};
