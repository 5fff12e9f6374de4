/**
 * @file
 * Unit tests for the deterministic RNG and the Zipf sampler.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "common/rng.hh"

namespace morph
{
namespace
{

TEST(Rng, DeterministicForSeed)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    bool any_diff = false;
    for (int i = 0; i < 16; ++i)
        any_diff |= a.next() != b.next();
    EXPECT_TRUE(any_diff);
}

TEST(Rng, BelowStaysInRange)
{
    Rng rng(7);
    for (const std::uint64_t bound : {1ull, 2ull, 3ull, 63ull, 1000ull,
                                      (1ull << 40) + 17}) {
        for (int i = 0; i < 200; ++i)
            EXPECT_LT(rng.below(bound), bound);
    }
}

TEST(Rng, BelowOneAlwaysZero)
{
    Rng rng(9);
    for (int i = 0; i < 50; ++i)
        EXPECT_EQ(rng.below(1), 0u);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(11);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, BelowRoughlyUniform)
{
    Rng rng(13);
    constexpr std::uint64_t buckets = 8;
    std::uint64_t counts[buckets] = {};
    constexpr int draws = 80000;
    for (int i = 0; i < draws; ++i)
        ++counts[rng.below(buckets)];
    for (std::uint64_t c : counts) {
        EXPECT_GT(c, draws / buckets * 85 / 100);
        EXPECT_LT(c, draws / buckets * 115 / 100);
    }
}

TEST(Zipf, RankZeroMostPopular)
{
    Rng rng(17);
    ZipfSampler zipf(100, 1.0);
    std::map<std::uint64_t, unsigned> counts;
    for (int i = 0; i < 50000; ++i)
        ++counts[zipf.sample(rng)];
    EXPECT_GT(counts[0], counts[10]);
    EXPECT_GT(counts[0], counts[50]);
    EXPECT_GT(counts[1], counts[50]);
}

TEST(Zipf, SamplesInRange)
{
    Rng rng(19);
    for (const std::uint64_t n : {1ull, 2ull, 100ull, 1ull << 22}) {
        ZipfSampler zipf(n, 0.9);
        for (int i = 0; i < 500; ++i)
            ASSERT_LT(zipf.sample(rng), n);
    }
}

TEST(Zipf, LargeDomainUsesApproximation)
{
    // Beyond the CDF limit the sampler switches to the continuous
    // inverse; skew must survive the switch.
    Rng rng(23);
    ZipfSampler zipf(1ull << 24, 1.0);
    std::uint64_t low = 0, high = 0;
    for (int i = 0; i < 20000; ++i) {
        const std::uint64_t s = zipf.sample(rng);
        if (s < 100)
            ++low;
        if (s >= (1ull << 23))
            ++high;
    }
    EXPECT_GT(low, high);
    EXPECT_GT(low, 1000u);
}

TEST(Zipf, GuideSearchEqualsLowerBound)
{
    // At every CDF value and its neighbours, the guided search must
    // return what a search over all n ranks returns (clamped to n-1).
    for (const std::uint64_t n : {std::uint64_t(1), std::uint64_t(2),
                                  std::uint64_t(3), std::uint64_t(1000),
                                  std::uint64_t(1) << 20}) {
        for (const double exponent : {0.0, 0.8, 0.9, 0.95, 1.0}) {
            const ZipfSampler zipf(n, exponent);
            const std::vector<double> &cdf = zipf.cdf();
            ASSERT_EQ(cdf.size(), n);
            // lower_bound by a linear walk from the previous answer:
            // the queries come in increasing order, so it costs O(1).
            std::uint64_t j = 0;
            const auto expect = [&](double u) {
                while (j > 0 && cdf[j - 1] >= u)
                    --j;
                while (j < n && cdf[j] < u)
                    ++j;
                return std::min(j, n - 1);
            };
            std::uint64_t mismatches = 0;
            const auto check = [&](double u) {
                if (zipf.rankAt(u) != expect(u) && mismatches++ == 0)
                    ADD_FAILURE() << "n=" << n << " s=" << exponent
                                  << " u=" << u << ": " << zipf.rankAt(u)
                                  << " != " << expect(u);
            };
            check(0.0);
            for (const double v : cdf) {
                check(std::nextafter(v, 0.0));
                check(v);
                check(std::nextafter(v, INFINITY));
            }
            EXPECT_EQ(mismatches, 0u) << "n=" << n << " s=" << exponent;
        }
    }
}

TEST(Zipf, EqualSamplersShareOneTable)
{
    // Samplers of one (n, exponent) share one table, which dies with
    // the last of them; another shape gets its own, and a table built
    // after the old one died draws exactly as the old one did.
    std::weak_ptr<const ZipfSampler::Table> shared;
    std::uint64_t draws[2][64];
    for (unsigned round = 0; round < 2; ++round) {
        auto a = std::make_unique<ZipfSampler>(4915, 0.9);
        auto b = std::make_unique<ZipfSampler>(4915, 0.9);
        const ZipfSampler other_n(4916, 0.9);
        const ZipfSampler other_s(4915, 0.95);
        ASSERT_NE(a->table(), nullptr);
        EXPECT_EQ(a->table(), b->table());
        EXPECT_EQ(&a->cdf(), &b->cdf());
        EXPECT_NE(a->table(), other_n.table());
        EXPECT_NE(a->table(), other_s.table());
        EXPECT_EQ(a->table().use_count(), 2);
        shared = a->table();
        Rng rng(31);
        for (std::uint64_t &d : draws[round])
            d = b->sample(rng);
        a.reset();
        EXPECT_FALSE(shared.expired()); // b still holds it
        b.reset();
        EXPECT_TRUE(shared.expired());
    }
    EXPECT_TRUE(std::equal(std::begin(draws[0]), std::end(draws[0]),
                           std::begin(draws[1])));
}

TEST(Zipf, ConcurrentSamplersDrawAlike)
{
    // Sweep cells build samplers on several pool threads at once:
    // shapes shared between threads and shapes of their own, created
    // and dropped while others are live, draw as a lone sampler does.
    const auto draws = [](std::uint64_t n, double s) {
        const ZipfSampler zipf(n, s);
        Rng rng(n);
        std::uint64_t sum = 0;
        for (int i = 0; i < 64; ++i)
            sum = sum * 31 + zipf.sample(rng);
        return sum;
    };
    const std::uint64_t shared = draws(4915, 0.9);
    std::uint64_t own[4];
    for (unsigned t = 0; t < 4; ++t)
        own[t] = draws(1000 + t, 0.8);
    unsigned mismatches[4] = {};
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < 4; ++t)
        threads.emplace_back([&, t] {
            for (int round = 0; round < 50; ++round) {
                mismatches[t] += draws(4915, 0.9) != shared;
                mismatches[t] += draws(1000 + t, 0.8) != own[t];
            }
        });
    for (std::thread &thread : threads)
        thread.join();
    for (unsigned t = 0; t < 4; ++t)
        EXPECT_EQ(mismatches[t], 0u) << "thread " << t;
}

TEST(Zipf, ZeroExponentIsUniform)
{
    Rng rng(29);
    ZipfSampler zipf(10, 0.0);
    std::uint64_t counts[10] = {};
    for (int i = 0; i < 50000; ++i)
        ++counts[zipf.sample(rng)];
    for (std::uint64_t c : counts) {
        EXPECT_GT(c, 4000u);
        EXPECT_LT(c, 6000u);
    }
}

} // namespace
} // namespace morph
