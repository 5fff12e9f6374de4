/**
 * @file
 * Workload database: the paper's Table II, as synthetic-trace specs.
 *
 * 22 named workloads (16 SPEC2006 + 6 GAP) with the published
 * read-PKI, write-PKI and 4-core memory footprints, plus the 6 mixed
 * workloads. Pattern classes are assigned from the paper's qualitative
 * descriptions (random-access vs streaming vs skewed-graph); see
 * DESIGN.md for the mapping rationale.
 */

#ifndef MORPH_WORKLOADS_WORKLOAD_DB_HH
#define MORPH_WORKLOADS_WORKLOAD_DB_HH

#include <array>
#include <string>
#include <vector>

#include "workloads/trace_generators.hh"

namespace morph
{

/** One named workload (all four cores run copies of it: rate mode). */
struct WorkloadSpec
{
    std::string name;
    std::string suite; ///< "SPEC" or "GAP"
    double readPki;
    double writePki;
    double footprintGb; ///< 4-core footprint (paper Table II)
    Pattern pattern;
    double zipfExponent = 0.8;

    /** Write working set as a fraction of footprint lines (Random /
     *  HotCold patterns; see GeneratorParams::writeHotFraction). */
    double writeHotFraction = 1.0;

    /** Popularity skew over the write working set. */
    double writeZipfExponent = 0.7;
};

/** A 4-core heterogeneous mix. */
struct MixSpec
{
    std::string name;
    std::array<std::string, 4> parts; ///< workload name per core
};

/** The 22 named workloads of Table II. */
const std::vector<WorkloadSpec> &workloadTable();

/** The 6 mixes of the paper's evaluation. */
const std::vector<MixSpec> &mixTable();

/** Find a workload by name; nullptr if unknown. */
const WorkloadSpec *findWorkload(const std::string &name);

/** Find a mix by name; nullptr if unknown. */
const MixSpec *findMix(const std::string &name);

/** The generator parameters of makeWorkloadTrace (same arguments). */
GeneratorParams workloadParams(const WorkloadSpec &spec, unsigned core,
                               unsigned cores, std::uint64_t mem_bytes,
                               std::uint64_t seed,
                               double footprint_scale = 1.0);

/**
 * Build the per-core trace for @p spec.
 *
 * @param spec      workload characteristics
 * @param core      core id (0..cores-1); selects the address region
 * @param cores     number of cores sharing @p mem_bytes
 * @param mem_bytes protected memory capacity
 * @param seed      base RNG seed (deterministic traces)
 * @param footprint_scale divide the Table-II footprint by this factor;
 *        used by the overflow-rate experiments to reach counter
 *        steady state within a tractable access budget (the paper
 *        warms counters for 25 B instructions instead)
 */
std::unique_ptr<TraceSource> makeWorkloadTrace(const WorkloadSpec &spec,
                                               unsigned core,
                                               unsigned cores,
                                               std::uint64_t mem_bytes,
                                               std::uint64_t seed,
                                               double footprint_scale = 1.0);

} // namespace morph

#endif // MORPH_WORKLOADS_WORKLOAD_DB_HH
