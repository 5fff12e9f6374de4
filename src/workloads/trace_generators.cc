#include "workloads/trace_generators.hh"

#include <cmath>

#include "common/check.hh"
#include "common/log.hh"

namespace morph
{

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

/**
 * Common machinery: gap sampling, type selection, page mapping.
 * Derived supplies nextVirtualLine(type), a line in [0, pages * 64),
 * which next() calls directly.
 */
template <typename Derived>
class PatternBase : public TraceSource
{
  public:
    explicit PatternBase(const GeneratorParams &params)
        : params_(params), rng_(params.seed),
          pages_(std::max<std::uint64_t>(1,
                     params.footprintLines / linesPerPage)),
          perm_(pages_, params.seed ^ 0xfeedfaceull),
          gap_(meanGap(params))
    {
        MORPH_CHECK_LE(params.footprintLines, params.regionLines);
        writeFraction_ = params.writePki / (params.readPki + params.writePki);
    }

    TraceEntry
    next() final
    {
        TraceEntry entry;
        entry.gap = gap_(rng_.next53());
        entry.type = rng_.chance(writeFraction_) ? AccessType::Write
                                                 : AccessType::Read;
        entry.line = mapLine(
            static_cast<Derived &>(*this).nextVirtualLine(entry.type));
        return entry;
    }

  protected:
    /** Geometric inter-arrival mean from the PKI. */
    static double
    meanGap(const GeneratorParams &params)
    {
        const double pki = params.readPki + params.writePki;
        MORPH_CHECK(pki > 0);
        return 1000.0 / pki;
    }

    /** Apply the physical page permutation (which checks the page). */
    LineAddr
    mapLine(std::uint64_t vline) const
    {
        const std::uint64_t ppage = perm_(vline / linesPerPage);
        const LineAddr line = params_.regionBaseLine +
                              ppage * linesPerPage + vline % linesPerPage;
        MORPH_CHECK(line <
               params_.regionBaseLine + params_.regionLines);
        return line;
    }

    GeneratorParams params_;
    Rng rng_;
    std::uint64_t pages_;
    PagePermutation perm_;
    GapSampler gap_;
    double writeFraction_;
};

/**
 * Sequential sweep over the footprint. Reads and writes advance
 * independent sequential cursors: streaming codes read one array while
 * writing another, so the write stream touches every line of its pages
 * in order — the uniform counter usage that makes rebasing effective.
 */
class StreamingGenerator final : public PatternBase<StreamingGenerator>
{
  public:
    explicit StreamingGenerator(const GeneratorParams &params)
        : PatternBase(params), span_(pages_ * linesPerPage),
          writeCursor_(span_ / 2)
    {}

    std::uint64_t
    nextVirtualLine(AccessType type)
    {
        std::uint64_t &cursor =
            type == AccessType::Write ? writeCursor_ : readCursor_;
        const std::uint64_t line = cursor;
        if (++cursor == span_)
            cursor = 0;
        return line;
    }

  private:
    std::uint64_t span_;
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
class RandomGenerator final : public PatternBase<RandomGenerator>
{
  public:
    explicit RandomGenerator(const GeneratorParams &params)
        : PatternBase(params), writes_(params, pages_)
    {}

    std::uint64_t
    nextVirtualLine(AccessType type)
    {
        if (type == AccessType::Write && writes_.enabled())
            return writes_.sample(rng_);
        return rng_.below(pages_ * linesPerPage);
    }

  private:
    WriteWorkingSet writes_;
};

/** Zipf-popular pages, uniform lines within a page. */
class HotColdGenerator final : public PatternBase<HotColdGenerator>
{
  public:
    explicit HotColdGenerator(const GeneratorParams &params)
        : PatternBase(params), zipf_(pages_, params.zipfExponent),
          writes_(params, pages_)
    {}

    std::uint64_t
    nextVirtualLine(AccessType type)
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
class MixedGenerator final : public PatternBase<MixedGenerator>
{
  public:
    using PatternBase::PatternBase;

    std::uint64_t
    nextVirtualLine(AccessType)
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
            if (++page_ == pages_)
                page_ = 0;
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

std::uint32_t
GapSampler::reference(std::uint64_t x) const
{
    const double u = double(x) * 0x1.0p-53;
    const double gap = -mean_ * std::log1p(-u);
    return std::uint32_t(std::min(gap, 1e6));
}

PagePermutation::PagePermutation(std::uint64_t num_pages,
                                 std::uint64_t seed)
    : n_(num_pages), reciprocal_(~std::uint64_t(0) / num_pages),
      narrow_(num_pages <= (std::uint64_t(1) << 32))
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

} // namespace morph
