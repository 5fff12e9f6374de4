/**
 * @file
 * Tests for the crash injector: deterministic replay, recoverability
 * at swept cut points under both policies, and the broken fixture.
 */

#include <gtest/gtest.h>

#include "sim/crash_injector.hh"

namespace morph
{
namespace
{

/** The crash cut the tests use unless they sweep their own. */
constexpr std::uint64_t baseCut = 2'000;

RunConfig
baseConfig(PersistPolicy policy)
{
    RunConfig config;
    config.workload = "mcf";
    config.secmem.tree = TreeConfig::morph();
    // Small metadata cache so tree-level writebacks happen within the
    // short cut windows these tests can afford.
    config.secmem.metadataCacheBytes = 4 * 1024;
    config.secmem.persist.enabled = true;
    config.secmem.persist.policy = policy;
    config.secmem.persist.epochWrites = 64;
    config.options.seed = 11;
    return config;
}

TEST(CrashInjector, ReplayIsDeterministic)
{
    const RunConfig config = baseConfig(PersistPolicy::Lazy);
    const CrashReport a = injectCrash(config, baseCut);
    const CrashReport b = injectCrash(config, baseCut);
    EXPECT_EQ(a.fingerprint, b.fingerprint);
    EXPECT_EQ(a.persist.linePersists, b.persist.linePersists);
    EXPECT_EQ(a.persist.barriers, b.persist.barriers);
    EXPECT_EQ(a.recovery.recoveredDigest, b.recovery.recoveredDigest);
    EXPECT_EQ(a.recovery.rolledBack, b.recovery.rolledBack);
}

TEST(CrashInjector, DifferentCutsDiverge)
{
    const RunConfig config = baseConfig(PersistPolicy::Lazy);
    const CrashReport early = injectCrash(config, baseCut);
    const CrashReport late = injectCrash(config, 3'000);
    EXPECT_NE(early.fingerprint, late.fingerprint);
    EXPECT_GT(late.persist.entryMutations,
              early.persist.entryMutations);
}

TEST(CrashInjector, StrictRecoversAtSweptCuts)
{
    for (std::uint64_t cut : {200ull, 900ull, 2'500ull}) {
        const CrashReport report =
            injectCrash(baseConfig(PersistPolicy::Strict), cut);
        EXPECT_TRUE(report.recovery.consistent) << "cut " << cut;
        EXPECT_EQ(report.recovery.rolledBack, 0u);
        EXPECT_EQ(report.recovery.lostWrites, 0u);
    }
}

TEST(CrashInjector, LazyRecoversAtSweptCuts)
{
    for (std::uint64_t cut : {200ull, 900ull, 2'500ull}) {
        const CrashReport report =
            injectCrash(baseConfig(PersistPolicy::Lazy), cut);
        EXPECT_TRUE(report.recovery.consistent) << "cut " << cut;
    }
}

TEST(CrashInjector, BrokenTreePersistCaught)
{
    RunConfig config = baseConfig(PersistPolicy::Lazy);
    // Disarm the barrier so a commit never papers over the missing
    // write-ahead records inside the cut window.
    config.secmem.persist.epochWrites = 1ull << 40;
    config.secmem.persist.brokenSkipTreePersist = true;
    const CrashReport report = injectCrash(config, baseCut);
    EXPECT_FALSE(report.recovery.consistent);
}

} // namespace
} // namespace morph
