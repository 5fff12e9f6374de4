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

#include <bit>
#include <cstdint>
#include <memory>
#include <numbers>

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

namespace detail
{

/** ln(1 + i/128) and 1 / (1 + i/128), i < 128, for GapSampler. */
struct LogTable
{
    double ln[128];
    double inv[128];
};

constexpr LogTable
makeLogTable()
{
    LogTable table{};
    for (int i = 0; i < 128; ++i) {
        // ln(1 + i/128) = 2 atanh(z) with z = i / (256 + i) < 1/3; 25
        // odd terms leave a remainder below 3^-51.
        const double z = double(i) / double(256 + i);
        double power = z, sum = 0.0;
        for (int k = 1; k < 50; k += 2) {
            sum += power / k;
            power *= z * z;
        }
        table.ln[i] = 2.0 * sum;
        table.inv[i] = 128.0 / double(128 + i);
    }
    return table;
}

inline constexpr LogTable logTable = makeLogTable();

} // namespace detail

/**
 * Geometric inter-arrival gap around a mean of m instructions. For the
 * 53-bit uniform draw x (u = x * 2^-53, as Rng::uniform) it returns
 * exactly reference(x) = uint32(min(-m * log1p(-u), 1e6)), without
 * calling log1p on all but a vanishing share of draws.
 *
 * The fast path computes -ln(1 - u) = (53 - e) ln 2 - ln(1 + i/128)
 * - ln(1 + t) from the bits of 2^53 - x = 2^e (1 + i/128)(1 + t),
 * with a 128-entry table and a degree-4 series in t < 2^-7. Its
 * absolute error is below 2^-36 * m (series truncation t^5/5 < 2^-37,
 * rounding < 2^-45, both times m), and glibc's log1p (<= 1 ulp) puts
 * the reference within 2^-46 * m of the true value. When the interval
 * [approx - slack, approx + slack], slack = 2^-30 * m, holds a single
 * integer part and lies below the 1e6 cap, the reference lies in it
 * too and truncates to the same integer; otherwise the draw falls back
 * to the reference expression itself.
 */
class GapSampler
{
  public:
    explicit GapSampler(double mean_gap)
        : mean_(mean_gap), slack_(mean_gap * 0x1.0p-30)
    {}

    /** Gap for the draw @p x < 2^53. */
    std::uint32_t operator()(std::uint64_t x) const;

    /** The defining expression (and the fallback). */
    std::uint32_t reference(std::uint64_t x) const;

  private:
    double mean_;
    double slack_;
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
     *  overflow 64 bits; below that it reduces a * v + b by n with a
     *  precomputed reciprocal. Tests check the two forms agree. */
    std::uint64_t wide(std::uint64_t vpage) const;

    std::uint64_t size() const { return n_; }

  private:
    std::uint64_t n_;
    std::uint64_t multiplier_;
    std::uint64_t offset_;
    std::uint64_t reciprocal_; ///< floor((2^64 - 1) / n)
    bool narrow_; ///< n <= 2^32: a * v + b fits 64 bits
};

inline std::uint32_t
GapSampler::operator()(std::uint64_t x) const
{
    // 1 - u = y * 2^-53 with y = 2^53 - x in [1, 2^53], exact as a
    // double: its exponent field gives e, its top 7 mantissa bits i,
    // and the 45 below them f * 2^52 with f < 2^-7. (y converts as a
    // signed value: one instruction, where an unsigned one branches.)
    const std::uint64_t bits = std::bit_cast<std::uint64_t>(
        double(std::int64_t((std::uint64_t(1) << 53) - x)));
    const std::uint64_t i = (bits >> 45) & 127;
    const double t = double(bits & ((std::uint64_t(1) << 45) - 1)) *
                     0x1.0p-52 * detail::logTable.inv[i];
    const double ln1pt = t * (1.0 + t * (-0.5 + t * (1.0 / 3 - t * 0.25)));
    // 53 - e = 1076 - biased exponent.
    const double neglog = double(1076 - int(bits >> 52)) *
                              std::numbers::ln2 -
                          detail::logTable.ln[i] - ln1pt;
    const double approx = mean_ * neglog;
    const double hi = approx + slack_;
    const std::int64_t whole = std::int64_t(hi);
    if (hi < 1e6 && std::int64_t(approx - slack_) == whole)
        return std::uint32_t(whole);
    return reference(x);
}

inline std::uint64_t
PagePermutation::operator()(std::uint64_t vpage) const
{
    MORPH_CHECK_LT(vpage, n_);
    if (!narrow_)
        return wide(vpage);
    // v, a, b < n <= 2^32: z = a * v + b <= (2^32 - 1)^2 + 2^32 - 1 <
    // 2^64. With r = floor((2^64 - 1) / n) >= (2^64 - n) / n,
    // z * r / 2^64 >= z / n - z / 2^64 > z / n - 1, so the estimate q
    // is floor(z / n) or one less: one correction gives z mod n.
    const std::uint64_t z = vpage * multiplier_ + offset_;
    const std::uint64_t q = std::uint64_t(
        (static_cast<unsigned __int128>(z) * reciprocal_) >> 64);
    const std::uint64_t rem = z - q * n_;
    return rem >= n_ ? rem - n_ : rem;
}

} // namespace morph

#endif // MORPH_WORKLOADS_TRACE_GENERATORS_HH
