/**
 * @file
 * Synthetic post-LLC trace generators.
 *
 * The paper's workloads are characterized (its Table II) by read/write
 * PKI, footprint, and an access-pattern class that determines counter
 * usage (its Fig 7): streaming workloads write uniformly to most lines
 * of write-heavy pages; random workloads scatter accesses; graph
 * workloads show heavy page-popularity skew. Generators reproduce
 * those regimes:
 *
 *  Streaming — a sequential cursor sweeps the footprint; every line of
 *      a page is touched, driving uniform encryption-counter usage.
 *  Random    — uniform random lines over the footprint; sparse counter
 *      usage at every level.
 *  HotCold   — Zipf-popular pages with uniform lines inside; hot pages
 *      interspersed with cold pages in physical memory.
 *  Mixed     — sequential page sweep touching only a fixed ~40% subset
 *      of each page's lines: the mid-range usage fraction for which
 *      neither ZCC nor rebasing is ideal (GemsFDTD in the paper).
 *
 * All generators apply a page-granularity physical placement
 * permutation modelling the paper's "Random" OS page-allocation
 * policy, which intersperses hot and cold pages in physical space —
 * the cause of sparse integrity-tree counter usage.
 */

#ifndef MORPH_WORKLOADS_TRACE_GENERATORS_HH
#define MORPH_WORKLOADS_TRACE_GENERATORS_HH

#include <memory>

#include "common/rng.hh"
#include "workloads/trace.hh"

namespace morph
{

/** Access-pattern classes. */
enum class Pattern { Streaming, Random, HotCold, Mixed };

/** Parameters shared by all pattern generators. */
struct GeneratorParams
{
    LineAddr regionBaseLine = 0;   ///< first line of this core's region
    std::uint64_t regionLines = 0; ///< lines available to this core
    std::uint64_t footprintLines = 0; ///< lines actually used (<= region)
    double readPki = 10.0;
    double writePki = 5.0;
    double zipfExponent = 0.8; ///< HotCold page-popularity skew

    /**
     * Write working set, as a fraction of the footprint's lines
     * (Random / HotCold patterns only; Streaming and Mixed writes
     * follow their sweep). Real workloads write a much smaller, more
     * popular set of lines than they read — the source of the
     * concentrated counter increments behind the paper's overflow
     * rates. 1.0 disables the distinction.
     */
    double writeHotFraction = 1.0;

    /** Popularity skew over the write working set's lines. */
    double writeZipfExponent = 0.7;

    std::uint64_t seed = 1;
};

/** Construct a generator of the given pattern class. */
std::unique_ptr<TraceSource> makeGenerator(Pattern pattern,
                                           const GeneratorParams &params);

/**
 * Page-placement permutation: maps virtual page v in [0, n) to a
 * physical page in [0, n) bijectively via a multiplicative hash with
 * a multiplier coprime to n. Deterministic in (n, seed).
 */
class PagePermutation
{
  public:
    PagePermutation(std::uint64_t num_pages, std::uint64_t seed);

    std::uint64_t operator()(std::uint64_t vpage) const;

    /** The same map in 128-bit arithmetic, valid for any n. The call
     *  operator uses it only when n > 2^32, where a * v + b can
     *  overflow 64 bits; tests check the two forms agree. */
    std::uint64_t wide(std::uint64_t vpage) const;

    std::uint64_t size() const { return n_; }

  private:
    std::uint64_t n_;
    std::uint64_t multiplier_;
    std::uint64_t offset_;
    bool narrow_; ///< n <= 2^32: a * v + b fits 64 bits
};

} // namespace morph

#endif // MORPH_WORKLOADS_TRACE_GENERATORS_HH
