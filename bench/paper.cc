/**
 * @file
 * `paper [NAME...]`: prints the named figures (all, without a NAME) in
 * request order. Every distinct cell of the requested figures is
 * simulated once, on MORPH_BENCH_JOBS workers (default: one per
 * hardware thread); two cells are the same when their RunConfigs
 * compare equal. stderr gets one line, "paper: N cells requested, M
 * distinct"; an unknown NAME exits 2.
 */

#include <algorithm>
#include <cstring>

#include "bench_common.hh"
#include "common/run_pool.hh"

// One per bench/fig*_*.cc and bench/abl_*.cc file.
extern const morph::bench::Figure fig05AritySweep, fig06OverflowModel,
    fig07UsageHistogram, fig10ZccOverflowModel, fig11OverflowRates,
    fig14RebasingRates, fig15Performance, fig16TrafficBreakdown,
    fig17Table3Geometry, fig18Energy, fig19MdcacheSensitivity,
    fig20MacOrganization, ablSplitBenefits, ablMemoryScale,
    ablControllerOptions, ablDos, ablPersistOverhead;

int
main(int argc, char **argv)
{
    using namespace morph;
    using namespace morph::bench;

    const Figure *const figures[] = {
        &fig05AritySweep,       &fig06OverflowModel,
        &fig07UsageHistogram,   &fig10ZccOverflowModel,
        &fig11OverflowRates,    &fig14RebasingRates,
        &fig15Performance,      &fig16TrafficBreakdown,
        &fig17Table3Geometry,   &fig18Energy,
        &fig19MdcacheSensitivity, &fig20MacOrganization,
        &ablSplitBenefits,      &ablMemoryScale,
        &ablControllerOptions,  &ablDos,
        &ablPersistOverhead,
    };
    std::vector<const Figure *> requested;
    for (int i = 1; i < argc; ++i) {
        const auto named = [&](const Figure *f) {
            return std::strcmp(f->name, argv[i]) == 0;
        };
        const auto found = std::find_if(std::begin(figures),
                                        std::end(figures), named);
        if (found == std::end(figures)) {
            std::fprintf(stderr, "paper: unknown figure '%s'; one of:\n",
                         argv[i]);
            for (const Figure *figure : figures)
                std::fprintf(stderr, "  %s\n", figure->name);
            return 2;
        }
        requested.push_back(*found);
    }
    if (argc == 1)
        requested.assign(std::begin(figures), std::end(figures));

    // Each figure's cells, as indices into one list of distinct cells.
    std::vector<RunConfig> distinct;
    std::vector<std::vector<std::size_t>> slots(requested.size());
    std::size_t total = 0;
    for (std::size_t f = 0; f < requested.size(); ++f) {
        if (!requested[f]->cells)
            continue;
        for (RunConfig &config : requested[f]->cells()) {
            const auto slot = std::size_t(
                std::find(distinct.begin(), distinct.end(), config) -
                distinct.begin());
            if (slot == distinct.size())
                distinct.push_back(std::move(config));
            slots[f].push_back(slot);
            ++total;
        }
    }
    std::fprintf(stderr, "paper: %zu cells requested, %zu distinct\n",
                 total, distinct.size());

    SweepEngine engine(
        unsigned(strictEnv([] { return envCount("MORPH_BENCH_JOBS", 1); })
                     .value_or(RunPool::hardwareJobs())));
    const std::vector<SimResult> results = engine.map<SimResult>(
        distinct.size(), [&](std::size_t i) { return simulate(distinct[i]); });

    for (std::size_t f = 0; f < requested.size(); ++f) {
        std::vector<SimResult> own;
        for (const std::size_t slot : slots[f])
            own.push_back(results[slot]);
        requested[f]->view(own);
    }
    return 0;
}
