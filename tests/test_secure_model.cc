/**
 * @file
 * Tests for the cycle-model secure memory controller: tree-walk
 * traffic, metadata caching, write propagation, overflow traffic and
 * MAC organizations.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <string>

#include "common/rng.hh"
#include "secmem/secure_memory_model.hh"

namespace morph
{
namespace
{

constexpr std::uint64_t MiB = 1ull << 20;
constexpr std::uint64_t GiB = 1ull << 30;

SecureModelConfig
smallConfig(TreeConfig tree = TreeConfig::sc64())
{
    SecureModelConfig config;
    config.memBytes = 256 * MiB;
    config.tree = std::move(tree);
    config.metadataCacheBytes = 16 * 1024;
    config.metadataCacheWays = 8;
    return config;
}

unsigned
countCategory(const std::vector<MemAccess> &accesses, Traffic category)
{
    return unsigned(std::count_if(
        accesses.begin(), accesses.end(),
        [&](const MemAccess &a) { return a.category == category; }));
}

TEST(SecureModel, NonSecureGeneratesOnlyData)
{
    auto config = smallConfig();
    config.secure = false;
    SecureMemoryModel model(config);
    std::vector<MemAccess> out;
    model.onDataAccess(0, AccessType::Read, out);
    model.onDataAccess(1, AccessType::Write, out);
    EXPECT_EQ(out.size(), 2u);
    EXPECT_EQ(countCategory(out, Traffic::Data), 2u);
    EXPECT_DOUBLE_EQ(model.stats().bloat(), 1.0);
}

TEST(SecureModel, ColdReadWalksToRoot)
{
    SecureMemoryModel model(smallConfig());
    std::vector<MemAccess> out;
    model.onDataAccess(0, AccessType::Read, out);

    // 256 MB SC-64: enc counters + 3 tree levels with the root line
    // on-chip. A cold read fetches the counter and walks until a
    // cached level; with an empty cache that is every level below the
    // root.
    EXPECT_EQ(countCategory(out, Traffic::Data), 1u);
    EXPECT_EQ(countCategory(out, Traffic::CtrEncr), 1u);
    EXPECT_EQ(countCategory(out, Traffic::Ctr1), 1u);
    // All metadata reads on a demand read are critical.
    for (const auto &access : out)
        EXPECT_TRUE(access.critical);
}

TEST(SecureModel, WarmReadHitsMetadataCache)
{
    SecureMemoryModel model(smallConfig());
    std::vector<MemAccess> out;
    model.onDataAccess(0, AccessType::Read, out);
    out.clear();
    model.onDataAccess(1, AccessType::Read, out); // same counter entry
    EXPECT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].category, Traffic::Data);
}

TEST(SecureModel, SpatialReuseAcrossArity)
{
    // Lines 0..63 share one SC-64 counter entry: one metadata fetch
    // serves all 64.
    SecureMemoryModel model(smallConfig());
    std::vector<MemAccess> out;
    for (LineAddr line = 0; line < 64; ++line)
        model.onDataAccess(line, AccessType::Read, out);
    EXPECT_EQ(model.stats().accesses(Traffic::CtrEncr), 1u);
}

TEST(SecureModel, WritesMarkCounterDirtyAndPropagateOnEviction)
{
    auto config = smallConfig();
    config.metadataCacheBytes = 1024; // 2 sets x 8 ways: tiny
    SecureMemoryModel model(config);
    std::vector<MemAccess> out;

    // Write, then thrash the metadata cache with distant reads until
    // the dirty counter entry is evicted; the write-back must appear
    // and the parent counter must be incremented.
    model.onDataAccess(0, AccessType::Write, out);
    const std::uint64_t wb_before =
        model.stats().writes[unsigned(Traffic::CtrEncr)];
    EXPECT_EQ(wb_before, 0u);

    for (LineAddr line = 0; line < 4096 * 64; line += 64)
        model.onDataAccess(line, AccessType::Read, out);
    EXPECT_GT(model.stats().writes[unsigned(Traffic::CtrEncr)], 0u)
        << "dirty counter entry never written back";
}

TEST(SecureModel, CounterIncrementsOnWrite)
{
    SecureMemoryModel model(smallConfig());
    std::vector<MemAccess> out;
    EXPECT_EQ(model.counterOf(7), 0u);
    model.onDataAccess(7, AccessType::Write, out);
    EXPECT_EQ(model.counterOf(7), 1u);
    model.onDataAccess(7, AccessType::Write, out);
    EXPECT_EQ(model.counterOf(7), 2u);
    EXPECT_EQ(model.counterOf(8), 0u);
}

TEST(SecureModel, OverflowEmitsReencryptionTraffic)
{
    SecureMemoryModel model(smallConfig(TreeConfig::sc128()));
    std::vector<MemAccess> out;
    // SC-128: 3-bit minors overflow on the 8th write to one line.
    for (int w = 0; w < 7; ++w)
        model.onDataAccess(3, AccessType::Write, out);
    EXPECT_EQ(model.stats().accesses(Traffic::Overflow), 0u);

    out.clear();
    model.onDataAccess(3, AccessType::Write, out);
    // 128 children re-encrypted: 128 reads + 128 writes.
    EXPECT_EQ(countCategory(out, Traffic::Overflow), 256u);
    EXPECT_EQ(model.stats().overflowsByLevel[0], 1u);
    EXPECT_DOUBLE_EQ(model.stats().usageAtOverflow.mean(),
                     1.0 / 128.0);
}

TEST(SecureModel, OverflowTrafficClampedAtMemoryEnd)
{
    auto config = smallConfig(TreeConfig::sc128());
    config.memBytes = 100 * lineBytes; // 100 data lines, one entry
    SecureMemoryModel model(config);
    std::vector<MemAccess> out;
    for (int w = 0; w < 8; ++w)
        model.onDataAccess(0, AccessType::Write, out);
    // Only 100 children exist.
    EXPECT_EQ(model.stats().accesses(Traffic::Overflow), 200u);
}

TEST(SecureModel, SeparateMacsAddTraffic)
{
    auto inline_config = smallConfig();
    auto separate_config = smallConfig();
    separate_config.inlineMacs = false;

    SecureMemoryModel inline_model(inline_config);
    SecureMemoryModel separate_model(separate_config);
    std::vector<MemAccess> out;
    for (LineAddr line = 0; line < 1000; ++line) {
        out.clear();
        inline_model.onDataAccess(line * 977 % 100000,
                                  AccessType::Read, out);
        out.clear();
        separate_model.onDataAccess(line * 977 % 100000,
                                    AccessType::Read, out);
    }
    EXPECT_EQ(inline_model.stats().accesses(Traffic::Mac), 0u);
    EXPECT_GT(separate_model.stats().accesses(Traffic::Mac), 0u);
    EXPECT_GT(separate_model.stats().bloat(),
              inline_model.stats().bloat());
}

TEST(SecureModel, MacLinesCoverEightDataLines)
{
    auto config = smallConfig();
    config.inlineMacs = false;
    SecureMemoryModel model(config);
    std::vector<MemAccess> out;
    // Lines 0..7 share one MAC line: exactly one MAC fetch.
    for (LineAddr line = 0; line < 8; ++line)
        model.onDataAccess(line, AccessType::Read, out);
    EXPECT_EQ(model.stats().accesses(Traffic::Mac), 1u);
}

TEST(SecureModel, TrafficCategoriesByLevel)
{
    EXPECT_EQ(trafficForLevel(0), Traffic::CtrEncr);
    EXPECT_EQ(trafficForLevel(1), Traffic::Ctr1);
    EXPECT_EQ(trafficForLevel(2), Traffic::Ctr2);
    EXPECT_EQ(trafficForLevel(3), Traffic::Ctr3Up);
    EXPECT_EQ(trafficForLevel(7), Traffic::Ctr3Up);
}

TEST(SecureModel, CompactTreeGeneratesLessTrafficThanVault)
{
    // The paper's central claim at the traffic level, on a random
    // access pattern over a large footprint.
    auto vault_config = smallConfig(TreeConfig::vault());
    auto morph_config = smallConfig(TreeConfig::morph());
    vault_config.memBytes = morph_config.memBytes = 4 * GiB;
    vault_config.metadataCacheBytes =
        morph_config.metadataCacheBytes = 128 * 1024;

    SecureMemoryModel vault(vault_config);
    SecureMemoryModel morph(morph_config);
    std::vector<MemAccess> out;
    std::uint64_t x = 12345;
    for (int i = 0; i < 20000; ++i) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        const LineAddr line = (x >> 20) % (4 * GiB / lineBytes);
        out.clear();
        vault.onDataAccess(line, AccessType::Read, out);
        out.clear();
        morph.onDataAccess(line, AccessType::Read, out);
    }
    EXPECT_LT(morph.stats().bloat(), vault.stats().bloat());
}

TEST(SecureModel, StatsResetPreservesCounterState)
{
    SecureMemoryModel model(smallConfig());
    std::vector<MemAccess> out;
    model.onDataAccess(5, AccessType::Write, out);
    model.resetStats();
    EXPECT_EQ(model.stats().total(), 0u);
    EXPECT_EQ(model.counterOf(5), 1u) << "reset must not clear counters";
}

TEST(SecureModel, MetadataOccupancyTracksLevels)
{
    SecureMemoryModel model(smallConfig());
    std::vector<MemAccess> out;
    for (LineAddr line = 0; line < 64 * 100; line += 64)
        model.onDataAccess(line, AccessType::Read, out);
    const auto occupancy = model.metadataCache().levelOccupancy();
    EXPECT_GT(occupancy[0], 0u); // encryption counter entries resident
    EXPECT_GT(occupancy[1], 0u); // level-1 entries resident
}

// The controller's exact output stream: every MemAccess {line, type,
// category, critical} of a seeded read/write stream, FNV-1a digested.
// Aggregate stats and timed cycles cannot see a reordered walk or a
// flipped critical flag in traffic-only runs; these digests can. A
// moved digest is a change to simulated behaviour: re-record them
// only for an intended model change.
enum class StreamVariant : unsigned
{
    Default,
    Speculative,
    CounterPrefetch,
    DemoteEncCounters,
    SeparateMacs,
    LazyPersist,
};
constexpr unsigned numStreamVariants = 6;

std::uint64_t
streamDigest(const TreeConfig &tree, StreamVariant variant)
{
    SecureModelConfig config = smallConfig(tree);
    switch (variant) {
      case StreamVariant::Default:
        break;
      case StreamVariant::Speculative:
        config.speculativeVerification = true;
        break;
      case StreamVariant::CounterPrefetch:
        config.counterPrefetch = true;
        break;
      case StreamVariant::DemoteEncCounters:
        config.demoteEncCounters = true;
        break;
      case StreamVariant::SeparateMacs:
        config.inlineMacs = false;
        break;
      case StreamVariant::LazyPersist:
        config.persist.enabled = true;
        config.persist.policy = PersistPolicy::Lazy;
        config.persist.epochWrites = 512;
        break;
    }
    SecureMemoryModel model(config);

    std::uint64_t digest = 0xcbf29ce484222325ull;
    const auto mix = [&digest](std::uint64_t value) {
        for (unsigned byte = 0; byte < 8; ++byte) {
            digest ^= (value >> (8 * byte)) & 0xff;
            digest *= 0x100000001b3ull;
        }
    };

    // A quarter of the stream writes 32 hot lines, enough to overflow
    // every counter format; a quarter reads and writes a warm 4096-line
    // region; the rest spreads over the whole footprint to miss in the
    // metadata cache and force dirty write-backs.
    Rng rng(0x5eed);
    const std::uint64_t lines = model.geometry().dataLines();
    std::vector<MemAccess> out;
    for (unsigned i = 0; i < 20000; ++i) {
        const unsigned band = unsigned(rng.below(4));
        const LineAddr line = band == 0   ? rng.below(32)
                              : band == 1 ? rng.below(4096)
                                          : rng.below(lines);
        const AccessType type = band == 0 || rng.chance(0.3)
                                    ? AccessType::Write
                                    : AccessType::Read;
        out.clear();
        model.onDataAccess(line, type, out);
        mix(out.size());
        for (const MemAccess &access : out) {
            mix(access.line);
            mix(std::uint64_t(access.type) << 16 |
                std::uint64_t(access.category) << 8 |
                std::uint64_t(access.critical));
        }
    }
    model.finishRun();
    // Every config walks the tree; all but SGX's 56-bit counters
    // overflow under the hot band.
    EXPECT_GT(model.stats().accesses(Traffic::Ctr1), 0u);
    if (tree.kindAt(0) != CounterKind::SC8) {
        EXPECT_GT(model.stats().totalOverflows(), 0u);
    }
    return digest;
}

struct StreamPin
{
    const char *config;
    std::array<std::uint64_t, numStreamVariants> digests;
};

// Columns follow StreamVariant.
constexpr StreamPin streamPins[] = {
    {"sc64",
     {0x5a8459e3552a23d6ull, 0x4b2bcace519dc802ull, 0x436b8480faade7f0ull,
      0xc6690d0dab4643b7ull, 0xe87ff12cfe0e7d50ull, 0x5a8459e3552a23d6ull}},
    {"vault",
     {0x0241904da6cabb92ull, 0x22f35e26dda1f267ull, 0xf9178016aed9ef45ull,
      0x32a60b2051910a9dull, 0xa8ef16fdd0098d41ull, 0x0241904da6cabb92ull}},
    {"morph",
     {0xb41abf94196d43c1ull, 0xd2076669bba96becull, 0x6218412eee11b4c5ull,
      0x8c7404c2b77b9da5ull, 0x2f23b4892d47fa19ull, 0xb41abf94196d43c1ull}},
    {"morph-zcc",
     {0x254b010b5e4d52d9ull, 0xabe4f7dab0db24b4ull, 0x2b336e6dda2878a2ull,
      0x3eaf09418c112889ull, 0x8f0853eae42fd4c1ull, 0x254b010b5e4d52d9ull}},
    {"sc128",
     {0x92b9765de673d962ull, 0xc77b0e105ae58017ull, 0xe522f4d0256b7fddull,
      0x6f2cf99f11dca3adull, 0x1de7c9687e5791daull, 0x92b9765de673d962ull}},
    {"sgx",
     {0x990c23b06016bd16ull, 0x3ce10adbdf5c99aeull, 0xf51cb958e8c915b9ull,
      0x77f8401d527774f3ull, 0xcee63f53a8b7a6e5ull, 0x990c23b06016bd16ull}},
    {"bmt",
     {0xaaeabea0a34099d8ull, 0x90b57b1508f15981ull, 0xc0abbc453f68f0c6ull,
      0x98564050c7533a29ull, 0xfed5d75c70e8b0d6ull, 0xaaeabea0a34099d8ull}},
};

void
PrintTo(const StreamPin &pin, std::ostream *os)
{
    *os << pin.config;
}

class OutputStream : public ::testing::TestWithParam<StreamPin>
{
};

TEST_P(OutputStream, DigestMatchesPin)
{
    const StreamPin &pin = GetParam();
    const TreeConfig *tree = findTreeConfig(pin.config);
    ASSERT_NE(tree, nullptr);
    for (unsigned v = 0; v < numStreamVariants; ++v)
        EXPECT_EQ(streamDigest(*tree, StreamVariant(v)), pin.digests[v])
            << pin.config << " variant " << v;
}

TEST(OutputStream, EveryNamedConfigIsPinned)
{
    ASSERT_EQ(namedTreeConfigs().size(), std::size(streamPins));
    for (std::size_t i = 0; i < std::size(streamPins); ++i)
        EXPECT_STREQ(namedTreeConfigs()[i].name, streamPins[i].config);
}

INSTANTIATE_TEST_SUITE_P(
    NamedConfigs, OutputStream, ::testing::ValuesIn(streamPins),
    [](const ::testing::TestParamInfo<StreamPin> &info) {
        std::string name = info.param.config;
        std::replace(name.begin(), name.end(), '-', '_');
        return name;
    });

} // namespace
} // namespace morph
