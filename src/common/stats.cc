#include "common/stats.hh"

#include <algorithm>

#include "common/check.hh"

namespace morph
{

Histogram::Histogram(double lo, double hi, unsigned buckets)
    : lo_(lo), hi_(hi), buckets_(buckets, 0)
{
    MORPH_CHECK(hi > lo && buckets > 0);
}

void
Histogram::record(double sample, std::uint64_t weight)
{
    const double span = hi_ - lo_;
    double pos = (sample - lo_) / span * double(buckets_.size());
    long idx = long(pos);
    idx = std::clamp(idx, 0l, long(buckets_.size()) - 1);
    buckets_[std::size_t(idx)] += weight;
    count_ += weight;
    sum_ += sample * double(weight);
}

double
Histogram::fraction(unsigned i) const
{
    if (count_ == 0)
        return 0.0;
    return double(buckets_.at(i)) / double(count_);
}

double
Histogram::bucketLo(unsigned i) const
{
    return lo_ + (hi_ - lo_) * double(i) / double(buckets_.size());
}

double
Histogram::bucketHi(unsigned i) const
{
    return bucketLo(i + 1);
}

double
Histogram::mean() const
{
    return count_ ? sum_ / double(count_) : 0.0;
}

double
Histogram::percentile(double p) const
{
    if (count_ == 0)
        return 0.0;
    p = std::clamp(p, 0.0, 1.0);
    // Rank of the requested quantile within the total weight.
    const double rank = p * double(count_);
    double seen = 0.0;
    for (unsigned i = 0; i < buckets_.size(); ++i) {
        const double weight = double(buckets_[i]);
        if (weight == 0.0)
            continue;
        if (seen + weight >= rank) {
            const double within =
                weight > 0.0 ? (rank - seen) / weight : 0.0;
            const double width =
                (hi_ - lo_) / double(buckets_.size());
            return bucketLo(i) +
                   std::clamp(within, 0.0, 1.0) * width;
        }
        seen += weight;
    }
    return hi_;
}

void
Histogram::reset()
{
    std::fill(buckets_.begin(), buckets_.end(), 0);
    count_ = 0;
    sum_ = 0.0;
}

ExpHistogram::ExpHistogram(unsigned buckets) : buckets_(buckets, 0)
{
    MORPH_CHECK(buckets >= 2);
}

std::uint64_t
ExpHistogram::bucketLo(unsigned i) const
{
    MORPH_CHECK_LT(i, buckets_.size());
    // Edges past 2^63 saturate: 2^64 does not fit the return type.
    return i == 0 ? 0 : i > 64 ? ~0ull : 1ull << (i - 1);
}

std::uint64_t
ExpHistogram::bucketHi(unsigned i) const
{
    MORPH_CHECK_LT(i, buckets_.size());
    return i == 0 ? 1 : i >= 64 ? ~0ull : 1ull << i;
}

double
ExpHistogram::mean() const
{
    return count_ ? sum_ / double(count_) : 0.0;
}

double
ExpHistogram::percentile(double p) const
{
    if (count_ == 0)
        return 0.0;
    p = std::clamp(p, 0.0, 1.0);
    const double rank = p * double(count_);
    double seen = 0.0;
    for (unsigned i = 0; i < buckets_.size(); ++i) {
        const double weight = double(buckets_[i]);
        if (weight == 0.0)
            continue;
        if (seen + weight >= rank) {
            const double within =
                std::clamp((rank - seen) / weight, 0.0, 1.0);
            const double lo = double(bucketLo(i));
            // The last bucket is open-ended; cap it at the largest
            // recorded sample so outliers do not inflate the tail.
            const double hi =
                std::min(double(bucketHi(i)), double(max_) + 1.0);
            // Interpolation runs to the bucket's exclusive upper edge,
            // so p100 would otherwise report max_ + 1 (and a lone
            // sample of 0 would report 1): no percentile can exceed
            // the largest recorded sample.
            return std::min(lo + within * (std::max(hi, lo + 1.0) - lo),
                            double(max_));
        }
        seen += weight;
    }
    return double(max_);
}

void
ExpHistogram::reset()
{
    std::fill(buckets_.begin(), buckets_.end(), 0);
    count_ = 0;
    max_ = 0;
    sum_ = 0.0;
}

} // namespace morph
