#include "common/rng.hh"

#include <bit>
#include <map>
#include <utility>

#include "common/mutex.hh"

namespace morph
{

namespace
{

/** CDF ranks per guide bucket, on average: the guide's 4-byte ranks
 *  take 1/32 of the CDF's memory. */
constexpr std::uint64_t ranksPerBucket = 16;

double
generalizedHarmonic(double n, double s)
{
    if (s == 1.0)
        return std::log(n + 1.0);
    return (std::pow(n + 1.0, 1.0 - s) - 1.0) / (1.0 - s);
}

/** The live Zipf tables, by (n, exponent bits). An entry whose table
 *  has died is replaced on its next use and pruned on any insert. */
struct ZipfRegistry
{
    Mutex lock;
    std::map<std::pair<std::uint64_t, std::uint64_t>,
             std::weak_ptr<const ZipfSampler::Table>>
        tables MORPH_GUARDED_BY(lock);
};

ZipfRegistry &
zipfRegistry()
{
    // C++11 guarantees race-free one-time construction; the map is
    // guarded by the contained lock (annotated).
    // morphflow: allow(race-naked-static): guarded members, see above
    static ZipfRegistry registry;
    return registry;
}

} // namespace

ZipfSampler::ZipfSampler(std::uint64_t n, double exponent)
    : n_(n), exponent_(exponent)
{
    MORPH_CHECK(n > 0);
    if (n_ > cdfLimit) {
        // Harmonic approximation H(n,s) for the continuous tail.
        norm_ = generalizedHarmonic(double(n_), exponent_);
        return;
    }
    table_ = sharedTable(n_, exponent_);
    norm_ = table_->norm;
    cdf_ = table_->cdf.data();
    guide_ = table_->guide.data();
    buckets_ = table_->buckets;
    bucketScale_ = table_->bucketScale;
}

std::shared_ptr<const ZipfSampler::Table>
ZipfSampler::sharedTable(std::uint64_t n, double exponent)
{
    ZipfRegistry &registry = zipfRegistry();
    const auto key = std::make_pair(n, std::bit_cast<std::uint64_t>(exponent));
    {
        LockGuard guard(registry.lock);
        const auto it = registry.tables.find(key);
        if (it != registry.tables.end())
            if (std::shared_ptr<const Table> live = it->second.lock())
                return live;
    }
    // Build outside the lock, so that samplers of other shapes are not
    // held up; if another thread published the same table meanwhile,
    // use that one and drop this.
    std::shared_ptr<const Table> built = buildTable(n, exponent);
    LockGuard guard(registry.lock);
    std::weak_ptr<const Table> &slot = registry.tables[key];
    if (std::shared_ptr<const Table> live = slot.lock())
        return live;
    slot = built;
    std::erase_if(registry.tables,
                  [](const auto &entry) { return entry.second.expired(); });
    return built;
}

std::shared_ptr<const ZipfSampler::Table>
ZipfSampler::buildTable(std::uint64_t n, double exponent)
{
    auto table = std::make_shared<Table>();
    table->cdf.reserve(n);
    double sum = 0.0;
    for (std::uint64_t i = 0; i < n; ++i) {
        sum += 1.0 / std::pow(double(i + 1), exponent);
        table->cdf.push_back(sum);
    }
    table->norm = sum;

    // The guide: one pass over the ranks, last to first, in which each
    // rank claims its own bucket, so a bucket ends with its first rank;
    // then one over the buckets, last to first, in which a bucket no
    // rank claimed takes the next bucket's rank (n - 1 past the end).
    // No branch depends on the CDF's values.
    table->buckets = std::max<std::uint64_t>(1, n / ranksPerBucket);
    table->bucketScale = double(table->buckets) / table->norm;
    const auto unclaimed = std::uint32_t(n);
    std::vector<std::uint32_t> &guide = table->guide;
    guide.assign(table->buckets + 2, unclaimed);
    for (std::uint64_t i = n; i-- > 0;)
        guide[bucketOf(table->cdf[i], table->buckets, table->bucketScale)] =
            std::uint32_t(i);
    auto next = std::uint32_t(n - 1);
    for (std::uint64_t b = guide.size(); b-- > 0;) {
        if (guide[b] != unclaimed)
            next = guide[b];
        guide[b] = next;
    }
    return table;
}

} // namespace morph
