/**
 * @file
 * Reproduces paper Fig 18: system power, execution time, energy and
 * energy-delay product for VAULT, SC-64 and MorphCtr-128, normalized
 * to SC-64.
 *
 * Expected shape: MorphCtr-128 trades slightly higher average power
 * for shorter execution time, netting lower energy and a clearly
 * better EDP (paper: -8.8%); VAULT is worse on every energy metric.
 */

#include "bench_common.hh"

namespace
{

using namespace morph;
using namespace morph::bench;

void
view(const std::vector<SimResult> &results)
{
    banner("Fig 18", "power / execution time / energy / EDP "
                     "(normalized to SC-64)");

    const char *names[] = {"VAULT", "SC-64", "MorphCtr-128"};
    const auto workloads = evaluationWorkloads();

    // Accumulate per-workload normalized metrics (geometric mean).
    std::vector<double> power[3], time[3], energy[3], edp[3];
    for (std::size_t w = 0; w < workloads.size(); ++w) {
        const EnergyReport &base = results[3 * w + 1].energy;
        for (std::size_t c = 0; c < 3; ++c) {
            const EnergyReport &r = results[3 * w + c].energy;
            power[c].push_back(r.systemPowerW / base.systemPowerW);
            time[c].push_back(r.seconds / base.seconds);
            energy[c].push_back(r.systemJ / base.systemJ);
            edp[c].push_back(r.edp / base.edp);
        }
    }

    std::printf("%-14s %12s %16s %10s %10s\n", "config", "power",
                "exec time", "energy", "EDP");
    for (int c = 0; c < 3; ++c) {
        std::printf("%-14s %12.3f %16.3f %10.3f %10.3f\n", names[c],
                    geomean(power[c]), geomean(time[c]),
                    geomean(energy[c]), geomean(edp[c]));
    }

    std::printf("\nPaper: MorphCtr-128 power +4%%, time -6%%, energy "
                "-2.7%%, EDP -8.8%%;\n");
    std::printf("       VAULT energy +3.2%%, EDP +10.5%%.\n");
}

} // namespace

extern const morph::bench::Figure fig18Energy = {
    "fig18_energy", morph::bench::performanceCells, view};
