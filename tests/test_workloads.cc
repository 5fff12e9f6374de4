/**
 * @file
 * Tests for trace generators and the workload database.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "common/rng.hh"
#include "workloads/trace_generators.hh"
#include "workloads/workload_db.hh"

namespace morph
{
namespace
{

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
