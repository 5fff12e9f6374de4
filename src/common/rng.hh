/**
 * @file
 * Deterministic random number generation for workload synthesis.
 *
 * All stochastic components of the simulator (trace generators, mixes,
 * page placement) draw from explicitly seeded generators so that every
 * experiment is bit-reproducible. We use xoshiro256** which is fast,
 * high quality, and trivially seedable from a 64-bit value.
 */

#ifndef MORPH_COMMON_RNG_HH
#define MORPH_COMMON_RNG_HH

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/check.hh"

namespace morph
{

/** xoshiro256** pseudo-random generator (Blackman & Vigna). */
class Rng
{
  public:
    /** Seed via splitmix64 expansion of a single 64-bit value. */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull)
    {
        std::uint64_t x = seed;
        for (auto &word : state_)
            word = splitmix64(x);
    }

    /** Next raw 64-bit value. */
    std::uint64_t
    next()
    {
        const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
        const std::uint64_t t = state_[1] << 17;
        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = rotl(state_[3], 45);
        return result;
    }

    /** Uniform integer in [0, bound). @p bound must be non-zero. */
    std::uint64_t
    below(std::uint64_t bound)
    {
        MORPH_DCHECK(bound > 0);
        // Unbiased rejection sampling via 128-bit multiply (Lemire).
        while (true) {
            const std::uint64_t x = next();
            const unsigned __int128 m = (unsigned __int128)x * bound;
            const std::uint64_t low = std::uint64_t(m);
            if (low >= bound || low >= std::uint64_t(-bound) % bound)
                return std::uint64_t(m >> 64);
        }
    }

    /** The top 53 bits of the next raw value: uniform() is this
     *  times 2^-53. */
    std::uint64_t next53() { return next() >> 11; }

    /** Uniform double in [0, 1). */
    double uniform() { return double(next53()) * 0x1.0p-53; }

    /** Bernoulli trial with probability @p p. */
    bool chance(double p) { return uniform() < p; }

  private:
    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    static std::uint64_t
    splitmix64(std::uint64_t &x)
    {
        x += 0x9e3779b97f4a7c15ull;
        std::uint64_t z = x;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }

    std::uint64_t state_[4];
};

/**
 * Zipf-distributed sampler over [0, n).
 *
 * Used to model hot/cold page popularity: a small exponent produces
 * mild skew, exponents near 1 produce the heavy page-popularity skew
 * seen in graph workloads. For n <= 2^20 a draw inverts a precomputed
 * CDF exactly: a guide table narrows the binary search to one bucket
 * of the CDF's range, so it touches a few adjacent CDF entries instead
 * of log2(n) scattered ones. Larger n inverts a continuous
 * approximation of the CDF in O(1).
 *
 * The CDF and its guide depend only on (n, exponent), so every live
 * sampler of one (n, exponent) shares one immutable Table: the first
 * builds it, the others find it in a process-wide registry of weak
 * references, and the last one to die frees it.
 */
class ZipfSampler
{
  public:
    /** The exact-inversion tables of one (n, exponent). */
    struct Table
    {
        double norm = 0.0;       ///< the CDF's last value
        std::vector<double> cdf; ///< unnormalised, one value per rank
        std::uint64_t buckets = 0;
        double bucketScale = 0.0;
        std::vector<std::uint32_t> guide; ///< buckets + 2 ranks
    };

    ZipfSampler(std::uint64_t n, double exponent);

    /** Draw one sample (rank 0 is the most popular item). */
    std::uint64_t
    sample(Rng &rng) const
    {
        const double u = rng.uniform() * norm_;
        if (cdf_ != nullptr)
            return rankAt(u);
        // Invert the continuous approximation of the CDF.
        const double s = exponent_;
        double x;
        if (s == 1.0) {
            x = std::exp(u) - 1.0;
        } else {
            x = std::pow(u * (1.0 - s) + 1.0, 1.0 / (1.0 - s)) - 1.0;
        }
        std::uint64_t idx = std::uint64_t(x);
        return idx >= n_ ? n_ - 1 : idx;
    }

    /**
     * The first rank whose CDF value is >= @p u, or n - 1 if none is
     * (the CDF's lower_bound, clamped). Only for n <= 2^20.
     *
     * Invariant: guide[b] is the first rank whose CDF value falls in
     * bucket b or a later one (n - 1 if none does), and bucketOf is
     * monotone. Ranks before guide[b] have CDF values in earlier
     * buckets, hence below u; the CDF value at guide[b + 1] lies in a
     * later bucket than u, hence above it (or guide[b + 1] is the
     * n - 1 clamp). So the answer lies in [guide[b], guide[b + 1]],
     * and the search there equals a search over all n ranks.
     */
    std::uint64_t
    rankAt(double u) const
    {
        const std::uint64_t b = bucketOf(u, buckets_, bucketScale_);
        std::uint64_t lo = guide_[b], hi = guide_[b + 1];
        while (lo < hi) {
            const std::uint64_t mid = (lo + hi) / 2;
            if (cdf_[mid] < u)
                lo = mid + 1;
            else
                hi = mid;
        }
        return lo;
    }

    /** The unnormalised CDF (empty beyond 2^20 ranks). */
    const std::vector<double> &
    cdf() const
    {
        static const std::vector<double> none;
        return table_ ? table_->cdf : none;
    }

    /** The shared tables (null beyond 2^20 ranks). */
    const std::shared_ptr<const Table> &table() const { return table_; }

    std::uint64_t size() const { return n_; }

  private:
    static constexpr std::uint64_t cdfLimit = 1u << 20;

    /** Bucket of a CDF value in [0, norm]; monotone in @p v. (The
     *  product is below 2^63: a signed conversion is one instruction,
     *  an unsigned one is several.) */
    static std::uint64_t
    bucketOf(double v, std::uint64_t buckets, double scale)
    {
        return std::min(buckets,
                        std::uint64_t(std::int64_t(v * scale)));
    }

    /** The table of (n, exponent): a live one if any sampler holds
     *  it, else a new one. */
    static std::shared_ptr<const Table> sharedTable(std::uint64_t n,
                                                    double exponent);
    static std::shared_ptr<const Table> buildTable(std::uint64_t n,
                                                   double exponent);

    std::uint64_t n_;
    double exponent_;
    std::shared_ptr<const Table> table_;
    // The hot fields of table_, copied so a draw reads no pointer
    // through it.
    double norm_ = 1.0;
    const double *cdf_ = nullptr;
    const std::uint32_t *guide_ = nullptr;
    std::uint64_t buckets_ = 0;
    double bucketScale_ = 0.0;
};

} // namespace morph

#endif // MORPH_COMMON_RNG_HH
