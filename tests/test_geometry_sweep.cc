/**
 * @file
 * Parameterized invariant sweep over tree geometries: every config x
 * memory size combination must produce a structurally sound tree.
 */

#include <gtest/gtest.h>

#include <tuple>

#include "common/rng.hh"
#include "counters/counter_factory.hh"
#include "integrity/tree_geometry.hh"

namespace morph
{
namespace
{

using SweepParam = std::tuple<int, std::uint64_t>;

TreeConfig
configByIndex(int index)
{
    switch (index) {
      case 0:
        return TreeConfig::sgx();
      case 1:
        return TreeConfig::vault();
      case 2:
        return TreeConfig::sc64();
      case 3:
        return TreeConfig::sc128();
      case 4:
        return TreeConfig::morph();
      case 5:
        return TreeConfig::morphZccOnly();
      case 6:
        return TreeConfig::sc64Rebased();
      default:
        return TreeConfig::bonsaiMacTree();
    }
}

class GeometrySweep : public ::testing::TestWithParam<SweepParam>
{
  protected:
    TreeConfig config() const
    {
        return configByIndex(std::get<0>(GetParam()));
    }
    std::uint64_t memBytes() const { return std::get<1>(GetParam()); }
};

TEST_P(GeometrySweep, LevelsShrinkByArity)
{
    const TreeGeometry geom(memBytes(), config());
    const auto &levels = geom.levels();
    ASSERT_GE(levels.size(), 1u);

    EXPECT_EQ(geom.dataLines(), memBytes() / lineBytes);
    std::uint64_t covered = geom.dataLines();
    for (const auto &info : levels) {
        EXPECT_EQ(info.arity, counterArity(config().kindAt(info.level)))
            << "level " << info.level;
        EXPECT_EQ(info.entries, (covered + info.arity - 1) / info.arity)
            << "level " << info.level;
        EXPECT_EQ(info.bytes, info.entries * lineBytes);
        covered = info.entries;
    }
    EXPECT_EQ(levels.back().entries, 1u);
    EXPECT_EQ(geom.treeLevels(), levels.size() - 1)
        << "tree levels exclude the encryption counters";
    EXPECT_EQ(geom.encryptionBytes(), levels[0].bytes);
}

TEST_P(GeometrySweep, PlacementIsContiguousAndDisjoint)
{
    const TreeGeometry geom(memBytes(), config());
    LineAddr next = geom.dataLines();
    for (const auto &info : geom.levels()) {
        EXPECT_EQ(info.baseLine, next);
        next += info.entries;
    }
    EXPECT_EQ(geom.totalBytes(), next * lineBytes);
}

TEST_P(GeometrySweep, ParentChildInverse)
{
    const TreeGeometry geom(memBytes(), config());
    Rng rng(std::get<0>(GetParam()) * 31 + 7);
    for (int i = 0; i < 200; ++i) {
        const LineAddr data_line = rng.below(geom.dataLines());
        const std::uint64_t entry = geom.parentIndex(0, data_line);
        const unsigned slot = geom.childSlot(0, data_line);
        EXPECT_EQ(entry * geom.levels()[0].arity + slot, data_line);
        EXPECT_LT(entry, geom.levels()[0].entries);
        EXPECT_LT(slot, geom.levels()[0].arity);
    }
}

TEST_P(GeometrySweep, EntryOfLineRoundTripsAtRandom)
{
    const TreeGeometry geom(memBytes(), config());
    Rng rng(std::get<0>(GetParam()) * 131 + 11);
    for (const auto &info : geom.levels()) {
        const std::uint64_t index = rng.below(info.entries);
        unsigned out_level;
        std::uint64_t out_index;
        ASSERT_TRUE(geom.entryOfLine(geom.lineOfEntry(info.level, index),
                                     out_level, out_index));
        EXPECT_EQ(out_level, info.level);
        EXPECT_EQ(out_index, index);
    }
}

TEST_P(GeometrySweep, MetadataOverheadIsBounded)
{
    const TreeGeometry geom(memBytes(), config());
    // Even SGX's 8-ary design keeps total metadata under 15% of data.
    EXPECT_LT(double(geom.totalBytes() - geom.memBytes()),
              0.15 * double(geom.memBytes()));
    // The tree above the encryption counters is always smaller than
    // the counters themselves.
    EXPECT_LT(geom.treeBytes(), geom.encryptionBytes());
}

INSTANTIATE_TEST_SUITE_P(
    ConfigsTimesSizes, GeometrySweep,
    ::testing::Combine(::testing::Range(0, 8),
                       // 100003 lines: no level divides evenly, so
                       // a floor in place of a ceil drops entries.
                       ::testing::Values(std::uint64_t(100003) * lineBytes,
                                         std::uint64_t(1) << 20,
                                         std::uint64_t(1) << 26,
                                         std::uint64_t(1) << 30,
                                         std::uint64_t(16) << 30,
                                         std::uint64_t(64) << 30)));

} // namespace
} // namespace morph
