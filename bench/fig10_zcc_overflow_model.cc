/**
 * @file
 * Reproduces paper Fig 10: writes tolerated before an overflow for
 * MorphCtr-128 (ZCC) vs SC-64, and the §V security-analysis numbers
 * (500+ uniform writes, 67-write adversarial pattern).
 */

#include <cmath>

#include "bench_common.hh"
#include "counters/counter_factory.hh"
#include "counters/overflow_model.hh"
#include "counters/split_counter.hh"

namespace
{

using namespace morph;
using namespace morph::bench;

void
view(const std::vector<SimResult> &)
{
    banner("Fig 10", "writes/overflow: MorphCtr-128 (ZCC) vs SC-64");

    SplitCounterFormat sc64(64);
    auto zcc_only = makeCounterFormat(CounterKind::MorphZccOnly);
    auto full = makeCounterFormat(CounterKind::Morph);

    std::printf("%-10s %14s %16s %18s\n", "fraction", "SC-64",
                "MorphCtr (ZCC)", "MorphCtr (+Rebase)");
    for (double fraction = 0.05; fraction <= 1.0001; fraction += 0.05) {
        const unsigned used64 =
            std::max(1u, unsigned(std::lround(fraction * 64)));
        const unsigned used128 =
            std::max(1u, unsigned(std::lround(fraction * 128)));
        std::printf("%-10.2f %14llu %16llu %18llu\n", fraction,
                    (unsigned long long)writesToOverflow(sc64, used64),
                    (unsigned long long)writesToOverflow(*zcc_only,
                                                         used128),
                    (unsigned long long)writesToOverflow(*full,
                                                         used128));
    }

    std::printf("\nSection V checks:\n");
    std::printf("  uniform 128-counter writes before overflow "
                "(rebasing): %llu  [paper: 500+]\n",
                (unsigned long long)writesToOverflow(*full, 128));
    std::printf("  adversarial 52-prime pattern: overflow at write "
                "%llu  [paper: 67]\n",
                (unsigned long long)adversarialWritesToOverflow(*full,
                                                                52));
}

} // namespace

extern const morph::bench::Figure fig10ZccOverflowModel = {
    "fig10_zcc_overflow_model", nullptr, view};
