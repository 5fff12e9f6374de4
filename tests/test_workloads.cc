/**
 * @file
 * Tests for trace generators and the workload database.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>

#include "common/check.hh"
#include "common/log.hh"
#include "common/rng.hh"
#include "workloads/trace_generators.hh"
#include "workloads/workload_db.hh"

namespace morph
{
namespace
{

/**
 * The trace generators before the O(1) front end (log1p for every gap,
 * a binary search over the whole Zipf CDF, a 64-bit `%` in the page
 * permutation, a virtual nextVirtualLine), kept verbatim as the oracle
 * of TraceDifferential.
 */
namespace oracle
{

class ZipfSampler
{
  public:
    ZipfSampler(std::uint64_t n, double exponent)
        : n_(n), exponent_(exponent)
    {
        MORPH_CHECK(n > 0);
        if (n_ <= cdfLimit) {
            cdf_.reserve(n_);
            double sum = 0.0;
            for (std::uint64_t i = 0; i < n_; ++i) {
                sum += 1.0 / std::pow(double(i + 1), exponent_);
                cdf_.push_back(sum);
            }
            norm_ = sum;
        } else {
            // Harmonic approximation H(n,s) for the continuous tail.
            norm_ = generalizedHarmonic(double(n_), exponent_);
        }
    }

    /** Draw one sample (rank 0 is the most popular item). */
    std::uint64_t
    sample(Rng &rng) const
    {
        const double u = rng.uniform() * norm_;
        if (!cdf_.empty()) {
            // Binary search the precomputed CDF.
            std::uint64_t lo = 0, hi = n_ - 1;
            while (lo < hi) {
                const std::uint64_t mid = (lo + hi) / 2;
                if (cdf_[mid] < u)
                    lo = mid + 1;
                else
                    hi = mid;
            }
            return lo;
        }
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

    std::uint64_t size() const { return n_; }

  private:
    static constexpr std::uint64_t cdfLimit = 1u << 20;

    static double
    generalizedHarmonic(double n, double s)
    {
        if (s == 1.0)
            return std::log(n + 1.0);
        return (std::pow(n + 1.0, 1.0 - s) - 1.0) / (1.0 - s);
    }

    std::uint64_t n_;
    double exponent_;
    double norm_ = 1.0;
    std::vector<double> cdf_;
};

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

namespace
{

/** Greatest common divisor (for coprime multiplier search). */
std::uint64_t
gcd64(std::uint64_t a, std::uint64_t b)
{
    while (b != 0) {
        const std::uint64_t t = a % b;
        a = b;
        b = t;
    }
    return a;
}

/** Common machinery: gap sampling, type selection, page mapping. */
class PatternBase : public TraceSource
{
  public:
    explicit PatternBase(const GeneratorParams &params)
        : params_(params), rng_(params.seed),
          pages_(std::max<std::uint64_t>(1,
                     params.footprintLines / linesPerPage)),
          perm_(pages_, params.seed ^ 0xfeedfaceull)
    {
        MORPH_CHECK_LE(params.footprintLines, params.regionLines);
        const double pki = params.readPki + params.writePki;
        MORPH_CHECK(pki > 0);
        meanGap_ = 1000.0 / pki;
        writeFraction_ = params.writePki / pki;
    }

    TraceEntry
    next() override
    {
        TraceEntry entry;
        entry.gap = sampleGap();
        entry.type = rng_.chance(writeFraction_) ? AccessType::Write
                                                 : AccessType::Read;
        entry.line = mapLine(nextVirtualLine(entry.type));
        return entry;
    }

  protected:
    /** Next virtual line in [0, footprintLines). */
    virtual std::uint64_t nextVirtualLine(AccessType type) = 0;

    /** Apply the physical page permutation. */
    LineAddr
    mapLine(std::uint64_t vline) const
    {
        const std::uint64_t vpage = vline / linesPerPage;
        const std::uint64_t offset = vline % linesPerPage;
        const std::uint64_t ppage = perm_(vpage % pages_);
        const LineAddr line =
            params_.regionBaseLine + ppage * linesPerPage + offset;
        MORPH_CHECK(line <
               params_.regionBaseLine + params_.regionLines);
        return line;
    }

    std::uint32_t
    sampleGap()
    {
        // Geometric inter-arrival around the PKI-derived mean.
        const double u = rng_.uniform();
        const double gap = -meanGap_ * std::log1p(-u);
        return std::uint32_t(std::min(gap, 1e6));
    }

    GeneratorParams params_;
    Rng rng_;
    std::uint64_t pages_;
    PagePermutation perm_;
    double meanGap_;
    double writeFraction_;
};

/**
 * Sequential sweep over the footprint. Reads and writes advance
 * independent sequential cursors: streaming codes read one array while
 * writing another, so the write stream touches every line of its pages
 * in order — the uniform counter usage that makes rebasing effective.
 */
class StreamingGenerator : public PatternBase
{
  public:
    explicit StreamingGenerator(const GeneratorParams &params)
        : PatternBase(params),
          writeCursor_(pages_ * linesPerPage / 2)
    {}

  protected:
    std::uint64_t
    nextVirtualLine(AccessType type) override
    {
        const std::uint64_t span = pages_ * linesPerPage;
        if (type == AccessType::Write) {
            const std::uint64_t line = writeCursor_;
            writeCursor_ = (writeCursor_ + 1) % span;
            return line;
        }
        const std::uint64_t line = readCursor_;
        readCursor_ = (readCursor_ + 1) % span;
        return line;
    }

  private:
    std::uint64_t readCursor_ = 0;
    std::uint64_t writeCursor_;
};

/**
 * Samples write targets from a concentrated working set: a
 * popularity-skewed set of *hot pages* scattered across the footprint
 * (random OS placement intersperses them with cold pages — sparse
 * integrity-tree counter usage), and within each hot page a small
 * fixed subset of lines (sparse encryption-counter usage). This is
 * the paper's Fig 7 left mode: "< 25% counters used in cacheline".
 */
class WriteWorkingSet
{
  public:
    WriteWorkingSet(const GeneratorParams &params, std::uint64_t pages)
        : enabled_(params.writeHotFraction < 1.0),
          hotPages_(enabled_
                        ? std::max<std::uint64_t>(
                              1, std::uint64_t(double(pages) *
                                               params.writeHotFraction))
                        : 1),
          zipf_(hotPages_, params.writeZipfExponent),
          scatter_(pages, params.seed ^ 0x5ca77e12ull)
    {}

    bool enabled() const { return enabled_; }

    std::uint64_t
    sample(Rng &rng) const
    {
        // Rank by popularity, scatter across the footprint's pages,
        // then pick one of the page's few hot line offsets.
        const std::uint64_t page = scatter_(zipf_.sample(rng));
        const std::uint64_t phase =
            (page * 0x9e3779b97f4a7c15ull) >> 58;
        const std::uint64_t which = rng.below(hotLinesPerPage);
        const std::uint64_t offset =
            (phase + which * offsetStride) % linesPerPage;
        return page * linesPerPage + offset;
    }

  private:
    /** Distinct write-hot lines per hot page (< 25% of 64). */
    static constexpr std::uint64_t hotLinesPerPage = 6;
    static constexpr std::uint64_t offsetStride = 11; // odd: distinct

    bool enabled_;
    std::uint64_t hotPages_;
    ZipfSampler zipf_;
    PagePermutation scatter_;
};

/** Uniform random lines over the footprint. */
class RandomGenerator : public PatternBase
{
  public:
    explicit RandomGenerator(const GeneratorParams &params)
        : PatternBase(params), writes_(params, pages_)
    {}

  protected:
    std::uint64_t
    nextVirtualLine(AccessType type) override
    {
        if (type == AccessType::Write && writes_.enabled())
            return writes_.sample(rng_);
        return rng_.below(pages_ * linesPerPage);
    }

  private:
    WriteWorkingSet writes_;
};

/** Zipf-popular pages, uniform lines within a page. */
class HotColdGenerator : public PatternBase
{
  public:
    explicit HotColdGenerator(const GeneratorParams &params)
        : PatternBase(params), zipf_(pages_, params.zipfExponent),
          writes_(params, pages_)
    {}

  protected:
    std::uint64_t
    nextVirtualLine(AccessType type) override
    {
        if (type == AccessType::Write && writes_.enabled())
            return writes_.sample(rng_);
        const std::uint64_t page = zipf_.sample(rng_);
        return page * linesPerPage + rng_.below(linesPerPage);
    }

  private:
    ZipfSampler zipf_;
    WriteWorkingSet writes_;
};

/**
 * Sequential page sweep touching a fixed ~40% subset of each page's
 * lines (mid-range counter-usage fraction).
 */
class MixedGenerator : public PatternBase
{
  public:
    using PatternBase::PatternBase;

  protected:
    std::uint64_t
    nextVirtualLine(AccessType) override
    {
        // `usedPerPage` distinct offsets per page, derived from a
        // per-page phase so different pages use different subsets.
        const std::uint64_t page = page_;
        const std::uint64_t phase =
            (page * 0x9e3779b97f4a7c15ull) >> 58; // 6-bit page phase
        const std::uint64_t offset =
            (phase + subCursor_ * stride) % linesPerPage;
        if (++subCursor_ >= usedPerPage) {
            subCursor_ = 0;
            page_ = (page_ + 1) % pages_;
        }
        return page * linesPerPage + offset;
    }

  private:
    static constexpr std::uint64_t usedPerPage = 26;
    static constexpr std::uint64_t stride = 5; // odd: distinct offsets
    std::uint64_t page_ = 0;
    std::uint64_t subCursor_ = 0;
};

} // namespace

PagePermutation::PagePermutation(std::uint64_t num_pages,
                                 std::uint64_t seed)
    : n_(num_pages), narrow_(num_pages <= (std::uint64_t(1) << 32))
{
    MORPH_CHECK(num_pages > 0);
    // Multiplier coprime to n gives a bijection v -> (a*v + b) mod n.
    std::uint64_t a = (seed | 1) % n_;
    if (a == 0)
        a = 1;
    while (gcd64(a, n_) != 1)
        a = (a + 1) % n_ == 0 ? 1 : a + 1;
    multiplier_ = a;
    offset_ = (seed >> 7) % n_;
}

std::uint64_t
PagePermutation::operator()(std::uint64_t vpage) const
{
    MORPH_CHECK_LT(vpage, n_);
    // v, a, b < n <= 2^32: a * v + b <= (2^32 - 1)^2 + 2^32 - 1 < 2^64.
    if (narrow_)
        return (vpage * multiplier_ + offset_) % n_;
    return wide(vpage);
}

std::uint64_t
PagePermutation::wide(std::uint64_t vpage) const
{
    MORPH_CHECK_LT(vpage, n_);
    return std::uint64_t((static_cast<unsigned __int128>(vpage) *
                              multiplier_ +
                          offset_) %
                         n_);
}

std::unique_ptr<TraceSource>
makeGenerator(Pattern pattern, const GeneratorParams &params)
{
    switch (pattern) {
      case Pattern::Streaming:
        return std::make_unique<StreamingGenerator>(params);
      case Pattern::Random:
        return std::make_unique<RandomGenerator>(params);
      case Pattern::HotCold:
        return std::make_unique<HotColdGenerator>(params);
      case Pattern::Mixed:
        return std::make_unique<MixedGenerator>(params);
    }
    panic("unknown pattern %d", int(pattern));
}

} // namespace oracle


constexpr std::uint64_t GiB = 1ull << 30;

GeneratorParams
baseParams(Pattern)
{
    GeneratorParams params;
    params.regionBaseLine = 1000 * linesPerPage;
    params.regionLines = 1ull << 22;
    params.footprintLines = 1ull << 16;
    params.readPki = 20;
    params.writePki = 10;
    params.seed = 7;
    return params;
}

class PatternParam : public ::testing::TestWithParam<Pattern>
{
};

TEST_P(PatternParam, EntriesStayInsideRegion)
{
    const auto params = baseParams(GetParam());
    auto gen = makeGenerator(GetParam(), params);
    for (int i = 0; i < 20000; ++i) {
        const TraceEntry entry = gen->next();
        ASSERT_GE(entry.line, params.regionBaseLine);
        ASSERT_LT(entry.line,
                  params.regionBaseLine + params.regionLines);
    }
}

TEST_P(PatternParam, DeterministicForSeed)
{
    const auto params = baseParams(GetParam());
    auto a = makeGenerator(GetParam(), params);
    auto b = makeGenerator(GetParam(), params);
    for (int i = 0; i < 1000; ++i) {
        const TraceEntry ea = a->next();
        const TraceEntry eb = b->next();
        ASSERT_EQ(ea.line, eb.line);
        ASSERT_EQ(ea.gap, eb.gap);
        ASSERT_EQ(int(ea.type), int(eb.type));
    }
}

TEST_P(PatternParam, WriteFractionMatchesPki)
{
    const auto params = baseParams(GetParam());
    auto gen = makeGenerator(GetParam(), params);
    unsigned writes = 0;
    constexpr int entries = 30000;
    for (int i = 0; i < entries; ++i)
        writes += gen->next().type == AccessType::Write;
    // writePki / (readPki + writePki) = 1/3.
    EXPECT_NEAR(double(writes) / entries, 1.0 / 3.0, 0.02);
}

TEST_P(PatternParam, GapMatchesPki)
{
    const auto params = baseParams(GetParam());
    auto gen = makeGenerator(GetParam(), params);
    double total_gap = 0;
    constexpr int entries = 30000;
    for (int i = 0; i < entries; ++i)
        total_gap += gen->next().gap;
    // 30 accesses per kilo-instruction -> ~33 instructions per access.
    EXPECT_NEAR(total_gap / entries, 1000.0 / 30.0, 2.0);
}

INSTANTIATE_TEST_SUITE_P(AllPatterns, PatternParam,
                         ::testing::Values(Pattern::Streaming,
                                           Pattern::Random,
                                           Pattern::HotCold,
                                           Pattern::Mixed));

TEST(StreamingPattern, WritesSweepSequentially)
{
    auto params = baseParams(Pattern::Streaming);
    auto gen = makeGenerator(Pattern::Streaming, params);
    // Consecutive writes touch consecutive lines of some page (after
    // the physical permutation, offsets within a page stay ordered).
    std::uint64_t last_offset = ~0ull;
    unsigned sequential = 0, samples = 0;
    for (int i = 0; i < 50000 && samples < 1000; ++i) {
        const TraceEntry entry = gen->next();
        if (entry.type != AccessType::Write)
            continue;
        const std::uint64_t offset = entry.line % linesPerPage;
        if (last_offset != ~0ull && offset == last_offset + 1)
            ++sequential;
        last_offset = offset;
        ++samples;
    }
    EXPECT_GT(sequential, samples * 9 / 10);
}

TEST(HotColdPattern, PageSkewIsVisible)
{
    auto params = baseParams(Pattern::HotCold);
    params.zipfExponent = 1.0;
    auto gen = makeGenerator(Pattern::HotCold, params);
    std::map<std::uint64_t, unsigned> page_counts;
    for (int i = 0; i < 50000; ++i)
        ++page_counts[pageOf(addrOf(gen->next().line))];
    unsigned hottest = 0;
    for (const auto &kv : page_counts)
        hottest = std::max(hottest, kv.second);
    // With zipf(1.0) the hottest page dwarfs the uniform share.
    const double uniform_share = 50000.0 / double(params.footprintLines /
                                                  linesPerPage);
    EXPECT_GT(hottest, 20 * uniform_share);
}

TEST(RandomPattern, WriteWorkingSetIsConcentrated)
{
    auto params = baseParams(Pattern::Random);
    params.writeHotFraction = 0.01;
    auto gen = makeGenerator(Pattern::Random, params);
    std::set<LineAddr> write_lines, read_lines;
    for (int i = 0; i < 60000; ++i) {
        const TraceEntry entry = gen->next();
        if (entry.type == AccessType::Write)
            write_lines.insert(entry.line);
        else
            read_lines.insert(entry.line);
    }
    // Writes revisit a small set; reads spray over the footprint.
    EXPECT_LT(write_lines.size() * 10, read_lines.size());
}

TEST(MixedPattern, UsesMidRangeOfEachPage)
{
    auto params = baseParams(Pattern::Mixed);
    auto gen = makeGenerator(Pattern::Mixed, params);
    std::map<std::uint64_t, std::set<std::uint64_t>> offsets_by_page;
    for (int i = 0; i < 200000; ++i) {
        const TraceEntry entry = gen->next();
        offsets_by_page[entry.line / linesPerPage].insert(
            entry.line % linesPerPage);
    }
    // Fully revisited pages use ~26 of 64 line offsets (~40%).
    std::size_t full_pages = 0;
    for (const auto &kv : offsets_by_page) {
        if (kv.second.size() >= 20) {
            ++full_pages;
            EXPECT_LE(kv.second.size(), 30u);
        }
    }
    EXPECT_GT(full_pages, 0u);
}

TEST(PagePermutationTest, IsBijective)
{
    for (const std::uint64_t n : {1ull, 2ull, 100ull, 4097ull}) {
        PagePermutation perm(n, 99);
        std::set<std::uint64_t> images;
        for (std::uint64_t v = 0; v < n; ++v) {
            const std::uint64_t p = perm(v);
            ASSERT_LT(p, n);
            images.insert(p);
        }
        EXPECT_EQ(images.size(), n);
    }
}

TEST(PagePermutationTest, ScattersNeighbours)
{
    PagePermutation perm(1 << 16, 3);
    unsigned adjacent = 0;
    for (std::uint64_t v = 0; v + 1 < 1000; ++v)
        adjacent += perm(v + 1) == perm(v) + 1;
    EXPECT_LT(adjacent, 10u);
}

TEST(PagePermutationTest, NarrowFormMatchesWideForm)
{
    // Every n <= 2^32 takes the 64-bit path; it must agree with the
    // 128-bit form on random (n, seed, vpage), boundaries included.
    Rng rng(0xbe11);
    const std::uint64_t two32 = std::uint64_t(1) << 32;
    for (const std::uint64_t n : {std::uint64_t(1), std::uint64_t(2),
                                  std::uint64_t(3), two32 - 1, two32}) {
        for (int trial = 0; trial < 200; ++trial) {
            const PagePermutation perm(n, trial < 2 ? trial : rng.next());
            for (const std::uint64_t vpage :
                 {std::uint64_t(0), n / 2, n - 1, rng.below(n)})
                ASSERT_EQ(perm(vpage), perm.wide(vpage))
                    << "n=" << n << " vpage=" << vpage;
        }
    }
    for (int trial = 0; trial < 2000; ++trial) {
        std::uint64_t n;
        switch (trial % 4) {
          case 0: n = 1 + rng.below(1u << 20); break;
          case 1: n = 1 + rng.below(two32); break;
          case 2: n = two32 - rng.below(16); break;
          default: n = two32 + 1 + rng.below(two32); break; // wide path
        }
        const PagePermutation perm(n, rng.next());
        for (int v = 0; v < 50; ++v) {
            const std::uint64_t vpage =
                v < 2 ? (v == 0 ? 0 : n - 1) : rng.below(n);
            ASSERT_EQ(perm(vpage), perm.wide(vpage))
                << "n=" << n << " vpage=" << vpage;
        }
    }
}

/** Entries of the two sources agree for @p count draws. */
void
expectSameEntries(TraceSource &fast, TraceSource &parent, int count,
                  const std::string &what)
{
    for (int k = 0; k < count; ++k) {
        const TraceEntry a = fast.next();
        const TraceEntry b = parent.next();
        ASSERT_TRUE(a.gap == b.gap && a.type == b.type && a.line == b.line)
            << what << " entry " << k << ": gap " << a.gap << " vs "
            << b.gap << ", line " << a.line << " vs " << b.line;
    }
}

TEST(TraceDifferential, WorkloadsMatchParentGenerators)
{
    for (const double scale : {1.0, 8.0, 32.0})
        for (const WorkloadSpec &spec : workloadTable())
            for (unsigned core = 0; core < 4; ++core) {
                const GeneratorParams params =
                    workloadParams(spec, core, 4, 16 * GiB, 1, scale);
                const auto fast = makeGenerator(spec.pattern, params);
                const auto parent =
                    oracle::makeGenerator(spec.pattern, params);
                expectSameEntries(*fast, *parent, 12000,
                                  spec.name + " core " +
                                      std::to_string(core) + " scale " +
                                      std::to_string(scale));
            }
}

TEST(TraceDifferential, MixesMatchParentGenerators)
{
    // A mix runs each part on its own core; seed 2 differs from the
    // workload test's.
    for (const double scale : {1.0, 8.0, 32.0})
        for (const MixSpec &mix : mixTable())
            for (unsigned core = 0; core < 4; ++core) {
                const WorkloadSpec &spec = *findWorkload(mix.parts[core]);
                const GeneratorParams params =
                    workloadParams(spec, core, 4, 16 * GiB, 2, scale);
                const auto fast = makeGenerator(spec.pattern, params);
                const auto parent =
                    oracle::makeGenerator(spec.pattern, params);
                expectSameEntries(*fast, *parent, 4000,
                                  mix.name + " core " +
                                      std::to_string(core));
            }
}

TEST(GapSamplerTest, MatchesReferenceAroundEveryThreshold)
{
    // Gap k starts at the draw T_k = 2^53 (1 - e^(-k/m)): the fast
    // path must give the reference's value at and around each one.
    const std::uint64_t top = (std::uint64_t(1) << 53) - 1;
    std::set<double> means;
    for (const WorkloadSpec &spec : workloadTable())
        means.insert(1000.0 / (spec.readPki + spec.writePki));
    for (const double mean : means) {
        const GapSampler gap(mean);
        ASSERT_EQ(gap(0), gap.reference(0)) << mean;
        ASSERT_EQ(gap(top), gap.reference(top)) << mean;
        const std::uint32_t largest = gap.reference(top);
        ASSERT_LT(largest, 1000000u);
        for (std::uint32_t k = 1; k <= largest; ++k) {
            const double threshold =
                -std::expm1(-double(k) / mean) * 0x1.0p53;
            const std::uint64_t centre =
                std::min(top, std::uint64_t(threshold));
            const std::uint64_t lo = centre < 64 ? 0 : centre - 64;
            const std::uint64_t hi = std::min(top, centre + 64);
            // The window really holds the step to gap k.
            ASSERT_LT(gap.reference(lo), k) << mean << " k=" << k;
            ASSERT_GE(gap.reference(hi), k) << mean << " k=" << k;
            for (std::uint64_t x = lo; x <= hi; ++x)
                ASSERT_EQ(gap(x), gap.reference(x))
                    << "mean " << mean << " x=" << x;
        }
    }
}

TEST(WorkloadDb, TableMatchesPaper)
{
    EXPECT_EQ(workloadTable().size(), 22u);
    EXPECT_EQ(mixTable().size(), 6u);

    const WorkloadSpec *mcf = findWorkload("mcf");
    ASSERT_NE(mcf, nullptr);
    EXPECT_DOUBLE_EQ(mcf->readPki, 69);
    EXPECT_DOUBLE_EQ(mcf->writePki, 2);
    EXPECT_DOUBLE_EQ(mcf->footprintGb, 7.5);

    const WorkloadSpec *gcc = findWorkload("gcc");
    ASSERT_NE(gcc, nullptr);
    EXPECT_DOUBLE_EQ(gcc->writePki, 53);
    EXPECT_EQ(int(gcc->pattern), int(Pattern::Streaming));

    EXPECT_EQ(findWorkload("nonexistent"), nullptr);
}

TEST(WorkloadDb, MixPartsResolve)
{
    for (const MixSpec &mix : mixTable())
        for (const auto &part : mix.parts)
            EXPECT_NE(findWorkload(part), nullptr)
                << mix.name << " references " << part;
}

TEST(WorkloadDb, CoreRegionsAreDisjoint)
{
    const WorkloadSpec *spec = findWorkload("lbm");
    ASSERT_NE(spec, nullptr);
    std::set<std::uint64_t> regions;
    for (unsigned core = 0; core < 4; ++core) {
        auto trace = makeWorkloadTrace(*spec, core, 4, 16 * GiB, 1);
        for (int i = 0; i < 2000; ++i) {
            const LineAddr line = trace->next().line;
            const std::uint64_t region = line / (16 * GiB / 64 / 4);
            regions.insert(region);
            ASSERT_EQ(region, core);
        }
    }
    EXPECT_EQ(regions.size(), 4u);
}

TEST(WorkloadDb, FootprintScaleShrinksWorkingSet)
{
    const WorkloadSpec *spec = findWorkload("mcf");
    ASSERT_NE(spec, nullptr);
    auto full = makeWorkloadTrace(*spec, 0, 4, 16 * GiB, 1, 1.0);
    auto scaled = makeWorkloadTrace(*spec, 0, 4, 16 * GiB, 1, 64.0);
    std::set<std::uint64_t> full_pages, scaled_pages;
    for (int i = 0; i < 20000; ++i) {
        full_pages.insert(full->next().line / linesPerPage);
        scaled_pages.insert(scaled->next().line / linesPerPage);
    }
    EXPECT_GT(full_pages.size(), 2 * scaled_pages.size());
}

TEST(WorkloadDbDeath, RejectsBadCore)
{
    const WorkloadSpec *spec = findWorkload("mcf");
    EXPECT_EXIT(makeWorkloadTrace(*spec, 4, 4, 16 * GiB, 1),
                ::testing::ExitedWithCode(1), "core");
}

} // namespace
} // namespace morph
