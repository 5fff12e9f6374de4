/**
 * @file
 * Reproduces paper Fig 6: writes tolerated before an overflow for
 * split counters (SC-64 vs SC-128) as the fraction of the counter
 * cacheline in use varies, plus the §V adversarial bound.
 */

#include <cmath>

#include "bench_common.hh"
#include "counters/overflow_model.hh"
#include "counters/split_counter.hh"

namespace
{

using namespace morph;
using namespace morph::bench;

void
view(const std::vector<SimResult> &)
{
    banner("Fig 6", "writes/overflow vs fraction of counter cacheline "
                    "used (uniform writes)");

    SplitCounterFormat sc64(64), sc128(128);
    std::printf("%-10s %14s %14s\n", "fraction", "SC-64", "SC-128");
    for (double fraction = 0.05; fraction <= 1.0001; fraction += 0.05) {
        const unsigned used64 =
            std::max(1u, unsigned(std::lround(fraction * 64)));
        const unsigned used128 =
            std::max(1u, unsigned(std::lround(fraction * 128)));
        std::printf("%-10.2f %14llu %14llu\n", fraction,
                    (unsigned long long)writesToOverflow(sc64, used64),
                    (unsigned long long)writesToOverflow(sc128,
                                                         used128));
    }

    std::printf("\nWorst case (single hot counter): SC-64 %llu, "
                "SC-128 %llu  [paper: 64 and 8]\n",
                (unsigned long long)writesToOverflow(sc64, 1),
                (unsigned long long)writesToOverflow(sc128, 1));
    std::printf("Uniform-use ratio SC-64/SC-128 at f=1.0: %.1fx  "
                "[paper: 8x]\n",
                double(writesToOverflow(sc64, 64)) /
                    double(writesToOverflow(sc128, 128)));
}

} // namespace

extern const morph::bench::Figure fig06OverflowModel = {
    "fig06_overflow_model", nullptr, view};
