/**
 * @file
 * Unit tests for histograms.
 */

#include <gtest/gtest.h>

#include <cstdint>

#include "common/stats.hh"

namespace morph
{
namespace
{

TEST(Histogram, BucketsSamplesCorrectly)
{
    Histogram h(0.0, 1.0, 4);
    h.record(0.1);
    h.record(0.3);
    h.record(0.3);
    h.record(0.9);
    EXPECT_EQ(h.count(), 4u);
    EXPECT_EQ(h.bucket(0), 1u);
    EXPECT_EQ(h.bucket(1), 2u);
    EXPECT_EQ(h.bucket(2), 0u);
    EXPECT_EQ(h.bucket(3), 1u);
}

TEST(Histogram, FractionsSumToOne)
{
    Histogram h(0.0, 1.0, 10);
    for (int i = 0; i < 100; ++i)
        h.record(double(i % 10) / 10.0 + 0.05);
    double sum = 0;
    for (unsigned i = 0; i < h.size(); ++i)
        sum += h.fraction(i);
    EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(Histogram, OutOfRangeClamps)
{
    Histogram h(0.0, 1.0, 4);
    h.record(-5.0);
    h.record(7.0);
    EXPECT_EQ(h.bucket(0), 1u);
    EXPECT_EQ(h.bucket(3), 1u);
}

TEST(Histogram, WeightedSamples)
{
    Histogram h(0.0, 10.0, 2);
    h.record(1.0, 9);
    h.record(9.0, 1);
    EXPECT_EQ(h.count(), 10u);
    EXPECT_EQ(h.bucket(0), 9u);
    EXPECT_NEAR(h.mean(), 1.8, 1e-12);
}

TEST(Histogram, BucketEdges)
{
    Histogram h(0.0, 1.0, 4);
    EXPECT_DOUBLE_EQ(h.bucketLo(0), 0.0);
    EXPECT_DOUBLE_EQ(h.bucketLo(2), 0.5);
}

TEST(Histogram, ResetClears)
{
    Histogram h(0.0, 1.0, 4);
    h.record(0.5);
    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.bucket(2), 0u);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
}

TEST(Histogram, PercentileEmptyIsZero)
{
    Histogram h(0.0, 1.0, 4);
    EXPECT_DOUBLE_EQ(h.percentile(0.5), 0.0);
    EXPECT_DOUBLE_EQ(h.percentile(0.99), 0.0);
}

TEST(Histogram, PercentileClampsArgument)
{
    Histogram h(0.0, 1.0, 4);
    h.record(0.6);
    // Out-of-range p clamps to [0, 1] rather than misbehaving.
    EXPECT_DOUBLE_EQ(h.percentile(-1.0), h.percentile(0.0));
    EXPECT_DOUBLE_EQ(h.percentile(2.0), h.percentile(1.0));
}

TEST(Histogram, PercentileInterpolatesWithinBucket)
{
    Histogram h(0.0, 1.0, 4);
    for (int i = 0; i < 100; ++i)
        h.record(0.3); // all mass in bucket [0.25, 0.5)
    // The median of a single uniform bucket is its midpoint.
    EXPECT_NEAR(h.percentile(0.5), 0.375, 1e-9);
    EXPECT_GE(h.percentile(0.99), h.percentile(0.5));
}

TEST(Histogram, PercentilesAreMonotone)
{
    Histogram h(0.0, 100.0, 20);
    for (int i = 0; i < 1000; ++i)
        h.record(double(i % 100));
    const double p50 = h.percentile(0.50);
    const double p95 = h.percentile(0.95);
    const double p99 = h.percentile(0.99);
    EXPECT_LE(p50, p95);
    EXPECT_LE(p95, p99);
    EXPECT_NEAR(p50, 50.0, 5.0);
    EXPECT_NEAR(p95, 95.0, 5.0);
}

TEST(ExpHistogram, BucketsArePowersOfTwo)
{
    ExpHistogram h(8);
    h.record(0);
    h.record(1);
    h.record(2);
    h.record(3);
    h.record(4);
    EXPECT_EQ(h.bucket(0), 1u); // exactly zero
    EXPECT_EQ(h.bucket(1), 1u); // [1, 2)
    EXPECT_EQ(h.bucket(2), 2u); // [2, 4)
    EXPECT_EQ(h.bucket(3), 1u); // [4, 8)
    EXPECT_EQ(h.count(), 5u);
}

TEST(ExpHistogram, ClampsToLastBucket)
{
    ExpHistogram h(4); // buckets: 0, [1,2), [2,4), [4, inf)
    h.record(1u << 20);
    EXPECT_EQ(h.bucket(3), 1u);
    EXPECT_EQ(h.max(), 1u << 20);
}

TEST(ExpHistogram, BucketEdges)
{
    // Bucket i >= 1 holds [2^(i-1), 2^i); the last bucket is open.
    ExpHistogram h(66);
    h.record(0);
    h.record(1);
    EXPECT_EQ(h.bucket(0), 1u);
    EXPECT_EQ(h.bucket(1), 1u);
    for (unsigned k = 1; k < 64; ++k) {
        ExpHistogram edge(66);
        edge.record((1ull << k) - 1);
        edge.record(1ull << k);
        EXPECT_EQ(edge.bucket(k), 1u) << "2^" << k << " - 1";
        EXPECT_EQ(edge.bucket(k + 1), 1u) << "2^" << k;
    }
    // 2^63 and UINT64_MAX both land in bucket 64, [2^63, 2^64); the
    // bucket-search loop this replaced shifted 1 by 64 here.
    h.record(1ull << 63);
    h.record(UINT64_MAX);
    EXPECT_EQ(h.bucket(64), 2u);
    EXPECT_EQ(h.bucket(65), 0u);
    EXPECT_EQ(h.bucketLo(64), 1ull << 63);
    EXPECT_EQ(h.bucketHi(64), UINT64_MAX);
    EXPECT_LE(h.percentile(1.0), double(UINT64_MAX));

    // A default 32-bucket histogram clamps UINT64_MAX into bucket 31.
    ExpHistogram small;
    small.record(UINT64_MAX);
    small.record((1ull << 30) - 1);
    EXPECT_EQ(small.bucket(31), 1u);
    EXPECT_EQ(small.bucket(30), 1u);
}

TEST(ExpHistogram, MeanAndReset)
{
    ExpHistogram h;
    h.record(10, 3);
    h.record(20);
    EXPECT_EQ(h.count(), 4u);
    EXPECT_NEAR(h.mean(), 12.5, 1e-12);
    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.max(), 0u);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
}

TEST(Histogram, PercentileSingleSampleAndP100StayInRange)
{
    Histogram h(0.0, 10.0, 5);
    h.record(3.0); // bucket [2, 4)
    // Every percentile of one sample stays inside its bucket; p100
    // must not run past the histogram's upper edge.
    EXPECT_GE(h.percentile(0.0), 2.0);
    EXPECT_LE(h.percentile(1.0), 4.0);
    for (int i = 0; i < 50; ++i)
        h.record(9.9);
    EXPECT_LE(h.percentile(1.0), 10.0);
}

TEST(ExpHistogram, PercentileNeverExceedsMax)
{
    // Regression: interpolation runs to the bucket's exclusive upper
    // edge, so p100 used to report max() + 1.
    ExpHistogram single;
    single.record(5); // bucket [4, 8)
    EXPECT_LE(single.percentile(1.0), 5.0);
    EXPECT_GE(single.percentile(1.0), 4.0);

    ExpHistogram zero;
    zero.record(0); // a lone zero sample used to report p100 = 1
    EXPECT_DOUBLE_EQ(zero.percentile(1.0), 0.0);
    EXPECT_DOUBLE_EQ(zero.percentile(0.5), 0.0);

    ExpHistogram many;
    for (std::uint64_t v = 1; v <= 300; ++v)
        many.record(v);
    for (const double p : {0.0, 0.25, 0.5, 0.9, 0.99, 1.0})
        EXPECT_LE(many.percentile(p), double(many.max())) << "p=" << p;
}

TEST(ExpHistogram, PercentileSingleSampleIsMonotone)
{
    ExpHistogram h;
    h.record(100);
    double prev = -1.0;
    for (const double p : {0.0, 0.1, 0.5, 0.9, 1.0}) {
        const double value = h.percentile(p);
        EXPECT_GE(value, prev) << "p=" << p;
        EXPECT_LE(value, 100.0) << "p=" << p;
        prev = value;
    }
}

TEST(ExpHistogram, PercentileEmptyAndMonotone)
{
    ExpHistogram h;
    EXPECT_DOUBLE_EQ(h.percentile(0.5), 0.0);
    for (std::uint64_t v = 1; v <= 1024; ++v)
        h.record(v);
    EXPECT_LE(h.percentile(0.50), h.percentile(0.95));
    EXPECT_LE(h.percentile(0.95), h.percentile(0.99));
    // p50 of 1..1024 lies in the [512, 1024) bucket's range.
    EXPECT_GE(h.percentile(0.5), 256.0);
    EXPECT_LE(h.percentile(0.5), 1024.0);
}

} // namespace
} // namespace morph
