/**
 * @file
 * Reproduces paper Fig 15 — the headline result: IPC of VAULT, SC-64
 * and MorphCtr-128 across the 28 evaluation workloads, normalized to
 * SC-64.
 *
 * Expected shape: MorphCtr-128 above 1.0 (paper: +6.3% average, up to
 * +28%), VAULT below 1.0 (paper: -6.4%), with the largest MorphCtr
 * gains on random-access workloads (mcf, omnetpp, GAP-twitter) and
 * parity on streaming ones (libquantum, gcc).
 */

#include "bench_common.hh"

namespace
{

using namespace morph;
using namespace morph::bench;

void
view(const std::vector<SimResult> &results)
{
    banner("Fig 15", "normalized performance (IPC): VAULT / SC-64 / "
                     "MorphCtr-128");

    std::printf("%-12s %10s %10s %14s %14s\n", "workload", "VAULT",
                "SC-64", "MorphCtr-128", "(SC-64 IPC)");
    const auto workloads = evaluationWorkloads();
    std::vector<double> vault_norm, morph_norm;
    for (std::size_t w = 0; w < workloads.size(); ++w) {
        const std::string &name = workloads[w];
        const SimResult &vault = results[3 * w + 0];
        const SimResult &sc64 = results[3 * w + 1];
        const SimResult &morphr = results[3 * w + 2];

        const double v = vault.ipc / sc64.ipc;
        const double m = morphr.ipc / sc64.ipc;
        vault_norm.push_back(v);
        morph_norm.push_back(m);
        std::printf("%-12s %10.3f %10.3f %14.3f %14.3f\n",
                    name.c_str(), v, 1.0, m, sc64.ipc);
    }

    const double v_gmean = geomean(vault_norm);
    const double m_gmean = geomean(morph_norm);
    std::printf("%-12s %10.3f %10.3f %14.3f\n", "GMEAN", v_gmean, 1.0,
                m_gmean);
    std::printf("\nMorphCtr-128 speedup over SC-64: %+.1f%%  [paper: "
                "+6.3%% avg, up to +28.3%%]\n",
                (m_gmean - 1.0) * 100);
    std::printf("VAULT slowdown vs SC-64:        %+.1f%%  [paper: "
                "-6.4%%]\n",
                (v_gmean - 1.0) * 100);
    std::printf("MorphCtr-128 speedup over VAULT: %+.1f%%  [paper: "
                "+13.5%% avg, up to +47.4%%]\n",
                (m_gmean / v_gmean - 1.0) * 100);
}

} // namespace

extern const morph::bench::Figure fig15Performance = {
    "fig15_performance", morph::bench::performanceCells, view};
