/**
 * @file
 * Tests for integrity-tree geometry — exact paper numbers
 * (Fig 1, Fig 17, Table III) plus address-mapping properties.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "integrity/tree_geometry.hh"

namespace morph
{
namespace
{

constexpr std::uint64_t GiB = 1ull << 30;
constexpr std::uint64_t MiB = 1ull << 20;
constexpr std::uint64_t KiB = 1ull << 10;

TEST(TreeGeometry, Sc64At16GbMatchesPaper)
{
    TreeGeometry geom(16 * GiB, TreeConfig::sc64());
    // Table III: 256 MB encryption counters, 4 MB tree, Fig 17: 4
    // levels (4 MB, 64 KB, 1 KB, 64 B).
    EXPECT_EQ(geom.encryptionBytes(), 256 * MiB);
    EXPECT_EQ(geom.treeLevels(), 4u);
    EXPECT_EQ(geom.levels()[1].bytes, 4 * MiB);
    EXPECT_EQ(geom.levels()[2].bytes, 64 * KiB);
    EXPECT_EQ(geom.levels()[3].bytes, 1 * KiB);
    EXPECT_EQ(geom.levels()[4].bytes, 64u);
    EXPECT_NEAR(double(geom.treeBytes()), double(4 * MiB), double(66 * KiB));
}

TEST(TreeGeometry, MorphAt16GbMatchesPaper)
{
    TreeGeometry geom(16 * GiB, TreeConfig::morph());
    // Table III: 128 MB encryption counters, ~1 MB tree, 3 levels.
    EXPECT_EQ(geom.encryptionBytes(), 128 * MiB);
    EXPECT_EQ(geom.treeLevels(), 3u);
    EXPECT_EQ(geom.levels()[1].bytes, 1 * MiB);
    EXPECT_EQ(geom.levels()[2].bytes, 8 * KiB);
    EXPECT_EQ(geom.levels()[3].bytes, 64u);
}

TEST(TreeGeometry, VaultAt16GbMatchesPaper)
{
    TreeGeometry geom(16 * GiB, TreeConfig::vault());
    // Fig 17a: 256 MB enc, then 8 MB, 512 KB, 32 KB, 2 KB, 128 B,
    // 64 B — six levels, ~8.5 MB total.
    EXPECT_EQ(geom.encryptionBytes(), 256 * MiB);
    EXPECT_EQ(geom.treeLevels(), 6u);
    EXPECT_EQ(geom.levels()[1].bytes, 8 * MiB);
    EXPECT_EQ(geom.levels()[2].bytes, 512 * KiB);
    EXPECT_EQ(geom.levels()[3].bytes, 32 * KiB);
    EXPECT_EQ(geom.levels()[4].bytes, 2 * KiB);
    EXPECT_EQ(geom.levels()[5].bytes, 128u);
    EXPECT_EQ(geom.levels()[6].bytes, 64u);
    EXPECT_NEAR(double(geom.treeBytes()) / double(MiB), 8.5, 0.1);
}

TEST(TreeGeometry, SgxAt16GbMatchesPaper)
{
    TreeGeometry geom(16 * GiB, TreeConfig::sgx());
    // Table III: 2 GB (12.5%) encryption counters, 292 MB tree.
    EXPECT_EQ(geom.encryptionBytes(), 2 * GiB);
    EXPECT_NEAR(double(geom.treeBytes()) / double(MiB), 292.0, 1.0);
}

TEST(TreeGeometry, TreeSizeRatiosFromFig1)
{
    // MorphTree is 4x smaller than the SC-64 tree and 8.5x smaller
    // than VAULT's.
    TreeGeometry sc64(16 * GiB, TreeConfig::sc64());
    TreeGeometry vault(16 * GiB, TreeConfig::vault());
    TreeGeometry morph(16 * GiB, TreeConfig::morph());
    EXPECT_NEAR(double(sc64.treeBytes()) / double(morph.treeBytes()),
                4.0, 0.1);
    EXPECT_NEAR(double(vault.treeBytes()) / double(morph.treeBytes()),
                8.5, 0.2);
}

TEST(TreeGeometry, RootIsSingleEntry)
{
    for (const auto &config :
         {TreeConfig::sgx(), TreeConfig::vault(), TreeConfig::sc64(),
          TreeConfig::sc128(), TreeConfig::morph()}) {
        TreeGeometry geom(16 * GiB, config);
        EXPECT_EQ(geom.levels().back().entries, 1u) << config.name;
        EXPECT_EQ(geom.rootLevel() + 1, geom.levels().size());
    }
}

TEST(TreeGeometry, ParentChildMapping)
{
    TreeGeometry geom(1 * GiB, TreeConfig::sc64());
    // Data line 130 -> level-0 entry 2, slot 2 (arity 64).
    EXPECT_EQ(geom.parentIndex(0, 130), 2u);
    EXPECT_EQ(geom.childSlot(0, 130), 2u);
    // Level-0 entry 130 -> level-1 entry 2, slot 2.
    EXPECT_EQ(geom.parentIndex(1, 130), 2u);
    EXPECT_EQ(geom.childSlot(1, 130), 2u);
}

TEST(TreeGeometry, VariableArityMapping)
{
    TreeGeometry geom(1 * GiB, TreeConfig::vault());
    // VAULT: level 1 is 32-ary, level 2+ are 16-ary.
    EXPECT_EQ(geom.levels()[1].arity, 32u);
    EXPECT_EQ(geom.levels()[2].arity, 16u);
    EXPECT_EQ(geom.parentIndex(1, 33), 1u);
    EXPECT_EQ(geom.childSlot(1, 33), 1u);
    EXPECT_EQ(geom.parentIndex(2, 17), 1u);
}

TEST(TreeGeometry, LevelPlacementIsContiguousAboveData)
{
    TreeGeometry geom(1 * GiB, TreeConfig::sc64());
    const auto &levels = geom.levels();
    LineAddr expected = geom.dataLines();
    for (const auto &info : levels) {
        EXPECT_EQ(info.baseLine, expected) << "level " << info.level;
        expected += info.entries;
    }
    EXPECT_EQ(geom.totalBytes(), expected * lineBytes);
}

TEST(TreeGeometry, EntryOfLineRoundTrip)
{
    TreeGeometry geom(1 * GiB, TreeConfig::morph());
    for (unsigned level = 0; level < geom.levels().size(); ++level) {
        const std::uint64_t last = geom.levels()[level].entries - 1;
        for (const std::uint64_t index : {std::uint64_t(0), last}) {
            unsigned out_level;
            std::uint64_t out_index;
            ASSERT_TRUE(geom.entryOfLine(geom.lineOfEntry(level, index),
                                         out_level, out_index));
            EXPECT_EQ(out_level, level);
            EXPECT_EQ(out_index, index);
        }
    }
}

TEST(TreeGeometry, DataLinesAreNotMetadata)
{
    TreeGeometry geom(1 * GiB, TreeConfig::sc64());
    unsigned level;
    std::uint64_t index;
    EXPECT_FALSE(geom.entryOfLine(0, level, index));
    EXPECT_FALSE(geom.entryOfLine(geom.dataLines() - 1, level, index));
}

TEST(TreeGeometry, TinyMemory)
{
    // 64 KB: 1024 data lines; SC-64 -> 16 level-0 entries -> root.
    TreeGeometry geom(64 * KiB, TreeConfig::sc64());
    EXPECT_EQ(geom.levels()[0].entries, 16u);
    EXPECT_EQ(geom.levels()[1].entries, 1u);
    EXPECT_EQ(geom.treeLevels(), 1u);
}

TEST(TreeGeometry, CeilDivisionOnNonAlignedSizes)
{
    // 65 data entries at arity 64 need 2 parent entries.
    TreeGeometry geom(65 * 64 * lineBytes, TreeConfig::sc64());
    EXPECT_EQ(geom.levels()[0].entries, 65u);
    EXPECT_EQ(geom.levels()[1].entries, 2u);
    EXPECT_EQ(geom.levels()[2].entries, 1u);
}

TEST(TreeGeometry, ShiftMappingMatchesDivision)
{
    // parentIndex/childSlot shift and mask by log2(arity); they must
    // equal / and % by the arity at every level of every named tree.
    const TreeConfig configs[] = {
        TreeConfig::sgx(),          TreeConfig::vault(),
        TreeConfig::sc64(),         TreeConfig::sc128(),
        TreeConfig::morph(),        TreeConfig::morphZccOnly(),
        TreeConfig::sc64Rebased(),  TreeConfig::bonsaiMacTree(),
    };
    Rng rng(0x7eee);
    for (const TreeConfig &config : configs) {
        for (const std::uint64_t mem : {GiB, 16 * GiB, 1024 * GiB}) {
            const TreeGeometry geom(mem, config);
            std::uint64_t children = geom.dataLines();
            for (const LevelInfo &info : geom.levels()) {
                EXPECT_EQ(1ull << info.arityLog2, info.arity);
                for (int i = 0; i < 2000; ++i) {
                    // Both ends of the level, then random children.
                    const std::uint64_t child =
                        i < 2 ? (i == 0 ? 0 : children - 1)
                              : rng.below(children);
                    ASSERT_EQ(geom.parentIndex(info.level, child),
                              child / info.arity)
                        << config.name << " level " << info.level;
                    ASSERT_EQ(geom.childSlot(info.level, child),
                              child % info.arity)
                        << config.name << " level " << info.level;
                }
                children = info.entries;
            }
        }
    }
}

TEST(TreeGeometryDeath, RejectsUnalignedSize)
{
    EXPECT_EXIT(TreeGeometry(100, TreeConfig::sc64()),
                ::testing::ExitedWithCode(1), "multiple");
}

TEST(TreeConfig, KindSchedules)
{
    const TreeConfig vault = TreeConfig::vault();
    EXPECT_EQ(vault.kindAt(0), CounterKind::SC64);
    EXPECT_EQ(vault.kindAt(1), CounterKind::SC32);
    EXPECT_EQ(vault.kindAt(2), CounterKind::SC16);
    EXPECT_EQ(vault.kindAt(9), CounterKind::SC16);
    EXPECT_EQ(vault.arityAt(0), 64u);
    EXPECT_EQ(vault.arityAt(1), 32u);

    const TreeConfig morph = TreeConfig::morph();
    EXPECT_EQ(morph.arityAt(0), 128u);
    EXPECT_EQ(morph.arityAt(5), 128u);
}

} // namespace
} // namespace morph
