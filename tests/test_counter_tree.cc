/**
 * @file
 * Tests for the shared counter-tree state (integrity/counter_tree_state)
 * and a differential across its three users: the functional
 * IntegrityTree, SecureMemory under both freshness schemes, and the
 * cycle-model SecureMemoryModel must keep identical level-0 counters
 * and agree on which data lines an overflow re-encrypts.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "integrity/counter_tree_state.hh"
#include "integrity/integrity_tree.hh"
#include "secmem/secure_memory.hh"
#include "secmem/secure_memory_model.hh"

namespace morph
{
namespace
{

constexpr std::uint64_t MiB = 1ull << 20;

TEST(CounterTreeState, EntriesMaterializeOnFirstTouch)
{
    CounterTreeState state(16 * MiB, TreeConfig::morph());
    EXPECT_EQ(state.find(0, 3), nullptr);
    EXPECT_EQ(state.counterOf(3 * 128 + 5), 0u);
    ASSERT_NE(state.find(0, 3), nullptr);
    EXPECT_EQ(state.images(0).size(), 1u);
    EXPECT_EQ(state.images(1).size(), 0u);
}

TEST(CounterTreeState, BumpLocatesTheCounter)
{
    CounterTreeState state(16 * MiB, TreeConfig::sc64());
    const CounterTreeState::Bump bump = state.bump(0, 64 * 7 + 9);
    EXPECT_EQ(bump.index, 7u);
    EXPECT_EQ(bump.slot, 9u);
    EXPECT_EQ(bump.image, state.find(0, 7));
    EXPECT_FALSE(bump.result.overflow);
    EXPECT_EQ(bump.childBegin, bump.childEnd);
    EXPECT_EQ(state.counterOf(64 * 7 + 9), 1u);
    EXPECT_EQ(state.counterOf(64 * 7 + 8), 0u);
}

/** An overflow in the last, partly filled entry re-encrypts only the
 *  data lines that exist. */
TEST(CounterTreeState, OverflowRangeIsClippedToExistingChildren)
{
    // 100 data lines under SC-64: entry 1 covers lines 64..99 only.
    CounterTreeState state(100 * lineBytes, TreeConfig::sc64());
    ASSERT_EQ(state.geometry().levels()[0].entries, 2u);
    for (unsigned i = 0; i < 10000; ++i) {
        const CounterTreeState::Bump bump = state.bump(0, 99);
        if (!bump.result.overflow)
            continue;
        EXPECT_EQ(bump.index, 1u);
        EXPECT_EQ(bump.childBegin, 64u);
        EXPECT_EQ(bump.childEnd, 100u);
        return;
    }
    FAIL() << "no overflow in 10000 writes to one line";
}

TEST(CounterTreeState, FindMemoMatchesTheStore)
{
    // find() remembers the last entry per level. Interleave finds,
    // materializations and bumps across every level: half of them on
    // the level's previous index, the rest on a pool that keeps
    // growing, so absent entries keep turning up. Hold every answer
    // against the entries the store itself holds.
    CounterTreeState state(64 * MiB, TreeConfig::morph());
    const unsigned levels = unsigned(state.geometry().levels().size());
    std::map<std::pair<unsigned, std::uint64_t>, CachelineData *> stored;
    std::vector<std::uint64_t> last(levels, 0);
    Rng rng(31);
    for (int op = 0; op < 20000; ++op) {
        const unsigned level = unsigned(rng.below(levels));
        const LevelInfo &info = state.geometry().levels()[level];
        const std::uint64_t index =
            rng.below(2) == 0
                ? last[level]
                : rng.below(std::min<std::uint64_t>(info.entries,
                                                    2 + op / 64));
        last[level] = index;
        const auto key = std::make_pair(level, index);
        switch (rng.below(3)) {
        case 0: {
            const auto it = stored.find(key);
            ASSERT_EQ(state.find(level, index),
                      it == stored.end() ? nullptr : it->second)
                << "op " << op << " level " << level << " index " << index;
            break;
        }
        case 1:
            if (!stored.count(key))
                stored[key] = &state.materialize(level, index);
            break;
        default: {
            const std::uint64_t child = index << info.arityLog2;
            if (child >= state.childCount(level))
                break;
            const CounterTreeState::Bump bump = state.bump(level, child);
            if (!stored.count(key))
                stored[key] = bump.image;
            ASSERT_EQ(bump.image, stored[key]) << "op " << op;
            break;
        }
        }
    }
    for (unsigned level = 0; level < levels; ++level)
        for (const auto &entry : state.images(level))
            EXPECT_EQ(stored.at({level, entry.key}), &entry.value);
}

// ---------------------------------------------------------------------
// Out-of-range entries panic in every user.
// ---------------------------------------------------------------------

TEST(CounterTreeDeathTest, ModelCounterOfOutOfRangeLinePanics)
{
    SecureModelConfig config;
    config.memBytes = 4 * MiB;
    SecureMemoryModel model(config);
    EXPECT_DEATH(model.counterOf(model.geometry().dataLines() * 1000),
                 "MORPH_CHECK failed");
}

TEST(CounterTreeDeathTest, FindOutOfRangePanicsWhileMemoHoldsNeighbour)
{
    // The range checks run before the per-level memo: an index one
    // past the last entry panics though the memo holds the last one.
    CounterTreeState state(4 * MiB, TreeConfig::morph());
    const std::uint64_t entries = state.geometry().levels()[0].entries;
    state.materialize(0, entries - 1);
    ASSERT_NE(state.find(0, entries - 1), nullptr);
    EXPECT_DEATH(state.find(0, entries), "MORPH_CHECK failed");
    EXPECT_DEATH(state.find(unsigned(state.geometry().levels().size()),
                            entries - 1),
                 "MORPH_CHECK failed");
}

TEST(CounterTreeDeathTest, InjectEntryOutOfRangePanics)
{
    IntegrityTree tree(4 * MiB, TreeConfig::morph(), SipKey{});
    const std::uint64_t entries = tree.geometry().levels()[0].entries;
    EXPECT_DEATH(tree.injectEntry(0, entries, CachelineData{}),
                 "MORPH_CHECK failed");
    EXPECT_DEATH(tree.injectEntry(tree.geometry().rootLevel() + 1, 0,
                                  CachelineData{}),
                 "MORPH_CHECK failed");
}

TEST(CounterTreeDeathTest, MerkleTamperOutOfRangePanics)
{
    SecureMemoryConfig config;
    config.memBytes = 4 * MiB;
    config.freshness = FreshnessScheme::MerkleMacTree;
    SecureMemory mem(config);
    const std::uint64_t entries = mem.geometry().levels()[0].entries;
    EXPECT_DEATH(mem.tamperCounterEntry(entries, CachelineData{}),
                 "MORPH_CHECK failed");
}

// ---------------------------------------------------------------------
// Cross-model differential.
// ---------------------------------------------------------------------

struct DiffCase
{
    const char *name;
    TreeConfig config;

    friend void PrintTo(const DiffCase &c, std::ostream *os)
    {
        *os << c.name;
    }
};

class CounterTreeDifferential : public ::testing::TestWithParam<DiffCase>
{
};

/**
 * Seeded writes, 3/4 of them to 512 hot lines, through all four
 * users. After every write the written line's counter is equal in all
 * of them, and the lines IntegrityTree reports for re-encryption are
 * exactly the data lines the cycle model sends as Overflow writes.
 */
TEST_P(CounterTreeDifferential, LevelZeroCountersAndOverflowsAgree)
{
    constexpr std::uint64_t memBytes = 4 * MiB;
    constexpr unsigned writes = 40000;
    constexpr std::uint64_t hotLines = 512;
    const TreeConfig &tree_config = GetParam().config;

    IntegrityTree tree(memBytes, tree_config, SipKey{});
    SecureMemoryConfig mem_config;
    mem_config.memBytes = memBytes;
    mem_config.tree = tree_config;
    SecureMemory counter_mem(mem_config);
    mem_config.freshness = FreshnessScheme::MerkleMacTree;
    SecureMemory merkle_mem(mem_config);
    SecureModelConfig model_config;
    model_config.memBytes = memBytes;
    model_config.tree = tree_config;
    model_config.metadataCacheBytes = 4 * 1024;
    SecureMemoryModel model(model_config);

    const std::uint64_t data_lines = tree.geometry().dataLines();
    Rng rng(0xc0ffee);
    std::vector<MemAccess> out;
    std::vector<CachelineData> hot_shadow(hotLines);
    unsigned overflows = 0;
    for (unsigned i = 0; i < writes; ++i) {
        const LineAddr line = rng.below(4) != 0 ? rng.below(hotLines)
                                                : rng.below(data_lines);
        CachelineData data{};
        data[0] = std::uint8_t(i);
        data[1] = std::uint8_t(i >> 8);
        if (line < hotLines)
            hot_shadow[line] = data;

        const IntegrityTree::BumpResult bump = tree.bumpCounter(line);
        counter_mem.writeLine(line, data);
        merkle_mem.writeLine(line, data);
        out.clear();
        model.onDataAccess(line, AccessType::Write, out);

        ASSERT_EQ(counter_mem.counterOf(line), bump.newCounter)
            << "write " << i << " line " << line;
        ASSERT_EQ(merkle_mem.counterOf(line), bump.newCounter)
            << "write " << i << " line " << line;
        ASSERT_EQ(model.counterOf(line), bump.newCounter)
            << "write " << i << " line " << line;

        std::set<LineAddr> model_reencrypt;
        for (const MemAccess &a : out)
            if (a.category == Traffic::Overflow &&
                a.type == AccessType::Write && a.line < data_lines)
                model_reencrypt.insert(a.line);
        const std::set<LineAddr> tree_reencrypt(bump.reencrypt.begin(),
                                                bump.reencrypt.end());
        ASSERT_EQ(tree_reencrypt, model_reencrypt)
            << "write " << i << " line " << line;
        overflows += bump.overflowed;
    }
    RecordProperty("level0_overflows", int(overflows));
    EXPECT_GE(overflows, 1u);
    EXPECT_EQ(tree.overflowEvents(0), overflows);
    EXPECT_EQ(counter_mem.stats().counterOverflows, overflows);
    EXPECT_EQ(merkle_mem.stats().counterOverflows, overflows);

    // Both functional memories still verify and decrypt the hot set.
    for (LineAddr line = 0; line < hotLines; ++line) {
        ASSERT_EQ(counter_mem.readLine(line), hot_shadow[line]) << line;
        ASSERT_EQ(merkle_mem.readLine(line), hot_shadow[line]) << line;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, CounterTreeDifferential,
    ::testing::Values(DiffCase{"sc64", TreeConfig::sc64()},
                      DiffCase{"vault", TreeConfig::vault()},
                      DiffCase{"morph", TreeConfig::morph()},
                      DiffCase{"morph_zcc", TreeConfig::morphZccOnly()},
                      DiffCase{"sc128", TreeConfig::sc128()}),
    [](const ::testing::TestParamInfo<DiffCase> &info) {
        return std::string(info.param.name);
    });

} // namespace
} // namespace morph
