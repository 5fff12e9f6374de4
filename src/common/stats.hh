/**
 * @file
 * Lightweight statistics: fixed-bucket histograms.
 *
 * Components own plain integer/double members for speed. A Histogram
 * supports the usage-fraction distributions reported in the paper
 * (Fig 7).
 */

#ifndef MORPH_COMMON_STATS_HH
#define MORPH_COMMON_STATS_HH

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

namespace morph
{

/** Fixed-width-bucket histogram over [lo, hi). */
class Histogram
{
  public:
    /**
     * @param lo      lowest representable sample
     * @param hi      one past the highest representable sample
     * @param buckets number of equal-width buckets
     */
    Histogram(double lo, double hi, unsigned buckets);

    /** Record one sample; out-of-range samples clamp to edge buckets. */
    void record(double sample, std::uint64_t weight = 1);

    /** Total recorded weight. */
    std::uint64_t count() const { return count_; }

    /** Weight in bucket @p i. */
    std::uint64_t bucket(unsigned i) const { return buckets_.at(i); }

    /** Fraction of total weight in bucket @p i (0 if empty). */
    double fraction(unsigned i) const;

    /** Number of buckets. */
    unsigned size() const { return unsigned(buckets_.size()); }

    /** Lower edge of bucket @p i. */
    double bucketLo(unsigned i) const;

    /** Upper edge of bucket @p i (== bucketLo(i + 1)). */
    double bucketHi(unsigned i) const;

    /** Mean of recorded samples. */
    double mean() const;

    /**
     * Value at quantile @p p (0 <= p <= 1, clamped). The weight
     * distribution is assumed uniform within each bucket, so the
     * result interpolates linearly between the bucket's edges. An
     * empty histogram reports 0.
     */
    double percentile(double p) const;

    /** Reset all buckets. */
    void reset();

  private:
    double lo_, hi_;
    std::vector<std::uint64_t> buckets_;
    std::uint64_t count_ = 0;
    double sum_ = 0.0;
};

/**
 * Exponential-bucket histogram for latency-like samples.
 *
 * Bucket 0 holds sample value 0, bucket i (i >= 1) holds samples in
 * [2^(i-1), 2^i); samples past the last bucket clamp into it. This
 * gives constant relative resolution over many orders of magnitude at
 * a fixed, small footprint — the standard shape for cycle-latency
 * distributions where p50 and p99 differ by 100x.
 */
class ExpHistogram
{
  public:
    /** @param buckets bucket count; covers [0, 2^(buckets-1)). */
    explicit ExpHistogram(unsigned buckets = 32);

    /** Record one sample. Inline: it runs once per timed read. */
    void
    record(std::uint64_t sample, std::uint64_t weight = 1)
    {
        // Bucket i >= 1 holds [2^(i-1), 2^i): the sample's bit width.
        const std::size_t idx = std::min<std::size_t>(
            std::bit_width(sample), buckets_.size() - 1);
        buckets_[idx] += weight;
        count_ += weight;
        max_ = std::max(max_, sample);
        sum_ += double(sample) * double(weight);
    }

    /** Total recorded weight. */
    std::uint64_t count() const { return count_; }

    /** Weight in bucket @p i. */
    std::uint64_t bucket(unsigned i) const { return buckets_.at(i); }

    /** Number of buckets. */
    unsigned size() const { return unsigned(buckets_.size()); }

    /** Lower edge of bucket @p i (0, 1, 2, 4, 8, ...). */
    std::uint64_t bucketLo(unsigned i) const;

    /** One past the highest sample representable in bucket @p i. */
    std::uint64_t bucketHi(unsigned i) const;

    /** Mean of recorded samples (exact: true sum is kept). */
    double mean() const;

    /** Largest recorded sample (exact). */
    std::uint64_t max() const { return max_; }

    /**
     * Value at quantile @p p (0 <= p <= 1, clamped), interpolated
     * uniformly within the winning bucket; 0 when empty.
     */
    double percentile(double p) const;

    /** Reset all buckets. */
    void reset();

  private:
    std::vector<std::uint64_t> buckets_;
    std::uint64_t count_ = 0;
    std::uint64_t max_ = 0;
    double sum_ = 0.0;
};

} // namespace morph

#endif // MORPH_COMMON_STATS_HH
