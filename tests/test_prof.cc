/**
 * @file
 * Unit tests for the morphprof self-profiling layer (common/prof):
 * scope nesting and exclusive-time accounting under a fake clock,
 * cross-thread merging by thread name, RunPool worker telemetry,
 * freeze-after-report semantics, the scope-name contract, the shape of
 * every exporter, and the scopes a profiled simulation records.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hh"
#include "common/rng.hh"
#include "common/prof.hh"
#include "common/run_pool.hh"
#include "sim/system.hh"

namespace morph
{
namespace
{

std::uint64_t fakeNow = 0;

std::uint64_t
fakeClock()
{
    return fakeNow;
}

/** Every case starts unfrozen and empty, with the test thread pinned
 *  to the "main" display name (a pool worker from an earlier suite
 *  may have claimed the first registration slot). */
class ProfTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        profResetForTest();
        profSetThreadName("main");
    }

    void
    TearDown() override
    {
        profSetClockForTest(nullptr);
        profResetForTest();
    }
};

const ProfEntry *
findEntry(const ProfReport &report, const std::string &path)
{
    for (const ProfEntry &entry : report.entries) {
        if (entry.path == path)
            return &entry;
    }
    return nullptr;
}

TEST_F(ProfTest, NameContractMatchesStatNames)
{
    EXPECT_TRUE(isValidProfName("sim.step"));
    EXPECT_TRUE(isValidProfName("pool.task_0"));
    EXPECT_FALSE(isValidProfName(""));
    EXPECT_FALSE(isValidProfName("Sim.Step"));
    EXPECT_FALSE(isValidProfName("sim step"));
    EXPECT_FALSE(isValidProfName("sim-step"));
}

TEST(ProfDeathTest, InvalidScopeNamePanics)
{
    EXPECT_DEATH(ProfSite bad("Bad.Name"),
                 "violates the \\[a-z0-9_\\.\\]\\+ contract");
    EXPECT_DEATH(ProfSite bad("Sim.TreeWalk"),
                 "violates the \\[a-z0-9_\\.\\]\\+ contract");
}

TEST(ProfDeathTest, DuplicateScopeNamePanics)
{
    EXPECT_DEATH(
        {
            ProfSite first("testprof.twice");
            ProfSite second("testprof.twice");
        },
        "duplicate prof scope name 'testprof\\.twice'");
    // A scope the simulator hot path registers, claimed again: the
    // second site panics whether or not the hot path ran first.
    EXPECT_DEATH(
        {
            ProfSite first("sim.step");
            ProfSite second("sim.step");
        },
        "duplicate prof scope name 'sim\\.step'");
}

TEST_F(ProfTest, DisabledScopesAreInvisible)
{
    {
        MORPH_PROF_SCOPE("testprof.dark");
    }
    const ProfReport report = profReport();
    EXPECT_EQ(report.wallNs, 0u);
    EXPECT_TRUE(report.entries.empty());
    EXPECT_EQ(report.coverage(), 0.0);
}

TEST_F(ProfTest, NestingAndExclusiveAccounting)
{
    profSetClockForTest(&fakeClock);
    fakeNow = 0;
    profEnable();
    {
        MORPH_PROF_SCOPE("testprof.outer");
        fakeNow += 10;
        {
            MORPH_PROF_SCOPE("testprof.inner");
            fakeNow += 20;
        }
        fakeNow += 30;
    }
    const ProfReport report = profReport();

    EXPECT_EQ(report.wallNs, 60u);
    ASSERT_EQ(report.threads.size(), 1u);
    EXPECT_EQ(report.threads[0], "main");

    const ProfEntry *outer = findEntry(report, "testprof.outer");
    ASSERT_NE(outer, nullptr);
    EXPECT_EQ(outer->name, "testprof.outer");
    EXPECT_EQ(outer->depth, 0u);
    EXPECT_EQ(outer->calls, 1u);
    EXPECT_EQ(outer->inclusiveNs, 60u);
    EXPECT_EQ(outer->exclusiveNs, 40u); // 60 minus the child's 20

    const ProfEntry *inner =
        findEntry(report, "testprof.outer;testprof.inner");
    ASSERT_NE(inner, nullptr);
    EXPECT_EQ(inner->depth, 1u);
    EXPECT_EQ(inner->calls, 1u);
    EXPECT_EQ(inner->inclusiveNs, 20u);
    EXPECT_EQ(inner->exclusiveNs, 20u);

    // The whole window is inside testprof.outer: full coverage.
    EXPECT_EQ(report.rootInclusiveNs("main"), 60u);
    EXPECT_DOUBLE_EQ(report.coverage(), 1.0);
}

TEST_F(ProfTest, RepeatedCallsAccumulateAtOneNode)
{
    profSetClockForTest(&fakeClock);
    fakeNow = 0;
    profEnable();
    for (int i = 0; i < 5; ++i) {
        MORPH_PROF_SCOPE("testprof.repeat");
        fakeNow += 7;
    }
    const ProfReport report = profReport();
    const ProfEntry *entry = findEntry(report, "testprof.repeat");
    ASSERT_NE(entry, nullptr);
    EXPECT_EQ(entry->calls, 5u);
    EXPECT_EQ(entry->inclusiveNs, 35u);
    EXPECT_EQ(entry->exclusiveNs, 35u);
}

TEST_F(ProfTest, ThreadsWithEqualNamesMerge)
{
    profEnable();
    auto body = [] {
        profSetThreadName("helper");
        MORPH_PROF_SCOPE("testprof.merged");
    };
    std::thread a(body);
    a.join();
    std::thread b(body);
    b.join();

    const ProfReport report = profReport();
    // "main" ran no scopes, so "helper" is the only thread, and both
    // OS threads folded into it.
    ASSERT_EQ(report.threads.size(), 1u);
    EXPECT_EQ(report.threads[0], "helper");
    const ProfEntry *entry = findEntry(report, "testprof.merged");
    ASSERT_NE(entry, nullptr);
    EXPECT_EQ(entry->thread, "helper");
    EXPECT_EQ(entry->calls, 2u);
}

TEST_F(ProfTest, MainThreadSortsFirst)
{
    profEnable();
    {
        MORPH_PROF_SCOPE("testprof.on_main");
    }
    std::thread helper([] {
        profSetThreadName("aaa_helper");
        MORPH_PROF_SCOPE("testprof.on_helper");
    });
    helper.join();

    const ProfReport report = profReport();
    ASSERT_EQ(report.threads.size(), 2u);
    // "aaa_helper" sorts before "main" lexically; "main" still leads.
    EXPECT_EQ(report.threads[0], "main");
    EXPECT_EQ(report.threads[1], "aaa_helper");
}

TEST_F(ProfTest, ReportFreezesTheProfile)
{
    profSetClockForTest(&fakeClock);
    fakeNow = 0;
    profEnable();
    {
        MORPH_PROF_SCOPE("testprof.before_freeze");
        fakeNow += 5;
    }
    const ProfReport first = profReport();
    EXPECT_FALSE(profEnabled());

    // Frozen: re-enabling is refused and later scopes are invisible.
    profEnable();
    EXPECT_FALSE(profEnabled());
    {
        MORPH_PROF_SCOPE("testprof.after_freeze");
        fakeNow += 50;
    }
    const ProfReport second = profReport();
    EXPECT_EQ(second.wallNs, first.wallNs);
    ASSERT_EQ(second.entries.size(), first.entries.size());
    EXPECT_EQ(findEntry(second, "testprof.after_freeze"), nullptr);

    // A reset lifts the freeze.
    profResetForTest();
    profEnable();
    EXPECT_TRUE(profEnabled());
}

TEST_F(ProfTest, PoolTelemetryTasksSumToSessionCount)
{
    profEnable();
    for (const unsigned threads : {1u, 3u, 8u}) {
        RunPool pool(threads);
        pool.forEach(257, [](std::size_t) {});
        const std::vector<ProfWorkerStats> stats = pool.telemetry();
        ASSERT_EQ(stats.size(), threads);
        std::uint64_t tasks = 0;
        for (std::size_t i = 0; i < stats.size(); ++i) {
            EXPECT_EQ(stats[i].worker, unsigned(i));
            tasks += stats[i].tasks;
        }
        // Which worker claims which task varies from run to run, but
        // the shared cursor hands out every index exactly once.
        EXPECT_EQ(tasks, 257u) << threads << " threads";
    }
}

TEST_F(ProfTest, LivePoolTelemetryAppearsInReport)
{
    profEnable();
    RunPool pool(4);
    pool.forEach(64, [](std::size_t) {});
    const ProfReport report = profReport();
    ASSERT_EQ(report.workers.size(), 4u);
    std::uint64_t tasks = 0;
    for (const ProfWorkerStats &ws : report.workers) {
        EXPECT_EQ(ws.pool, report.workers.front().pool);
        tasks += ws.tasks;
    }
    EXPECT_EQ(tasks, 64u);
    // The instrumented task loop shows up on the worker threads.
    bool sawTask = false;
    for (const ProfEntry &entry : report.entries)
        sawTask = sawTask || entry.name == "pool.task";
    EXPECT_TRUE(sawTask);
}

TEST_F(ProfTest, RetiredPoolTelemetrySurvivesDestruction)
{
    profEnable();
    {
        RunPool pool(2);
        pool.forEach(10, [](std::size_t) {});
    }
    const ProfReport report = profReport();
    ASSERT_EQ(report.workers.size(), 2u);
    EXPECT_EQ(report.workers[0].tasks + report.workers[1].tasks, 10u);
}

TEST_F(ProfTest, JsonExportParsesAndRoundTrips)
{
    profSetClockForTest(&fakeClock);
    fakeNow = 0;
    profEnable();
    {
        MORPH_PROF_SCOPE("testprof.json_root");
        fakeNow += 100;
        {
            MORPH_PROF_SCOPE("testprof.json_leaf");
            fakeNow += 50;
        }
    }
    ProfReport report = profReport();
    report.meta.set("tool", "testprof");

    std::ostringstream os;
    report.writeJson(os);
    JsonValue doc;
    ASSERT_TRUE(jsonParse(os.str(), doc)) << os.str();

    ASSERT_NE(doc.find("schema"), nullptr);
    EXPECT_EQ(doc.find("schema")->asString(), "morphprof-v1");
    EXPECT_EQ(doc.find("meta")->find("tool")->asString(), "testprof");
    EXPECT_EQ(doc.find("wall_ns")->asNumber(), 150.0);
    ASSERT_EQ(doc.find("threads")->size(), 1u);
    const JsonValue &thread = doc.find("threads")->elements()[0];
    EXPECT_EQ(thread.find("name")->asString(), "main");
    EXPECT_EQ(thread.find("root_inclusive_ns")->asNumber(), 150.0);
    ASSERT_EQ(thread.find("scopes")->size(), 2u);
    const JsonValue &leaf = thread.find("scopes")->elements()[1];
    EXPECT_EQ(leaf.find("path")->asString(),
              "testprof.json_root;testprof.json_leaf");
    EXPECT_EQ(leaf.find("exclusive_ns")->asNumber(), 50.0);
}

TEST_F(ProfTest, CollapsedStacksCarryExclusiveWeights)
{
    profSetClockForTest(&fakeClock);
    fakeNow = 0;
    profEnable();
    {
        MORPH_PROF_SCOPE("testprof.flame_root");
        fakeNow += 30;
        {
            MORPH_PROF_SCOPE("testprof.flame_leaf");
            fakeNow += 70;
        }
    }
    const ProfReport report = profReport();
    std::ostringstream os;
    report.writeCollapsed(os);
    EXPECT_NE(os.str().find("main;testprof.flame_root 30\n"),
              std::string::npos)
        << os.str();
    EXPECT_NE(
        os.str().find("main;testprof.flame_root;testprof.flame_leaf "
                      "70\n"),
        std::string::npos)
        << os.str();
}

/** A seeded read/write stream over 2^18 lines: enough counter entries
 *  to miss in a 16 KB metadata cache. */
class ProfTrace : public TraceSource
{
  public:
    explicit ProfTrace(std::uint64_t seed) : rng_(seed) {}

    TraceEntry
    next() override
    {
        const AccessType type =
            rng_.chance(0.3) ? AccessType::Write : AccessType::Read;
        return {std::uint32_t(rng_.below(8)), type, rng_.below(1u << 18)};
    }

  private:
    Rng rng_;
};

std::unique_ptr<SimSystem>
profSystem(bool timing)
{
    SystemConfig config;
    config.timing = timing;
    config.secmem.memBytes = 1ull << 30;
    config.secmem.tree = TreeConfig::morph();
    config.secmem.metadataCacheBytes = 16 * 1024;
    std::vector<std::unique_ptr<TraceSource>> traces;
    for (unsigned c = 0; c < config.numCores; ++c)
        traces.push_back(std::make_unique<ProfTrace>(c + 1));
    return std::make_unique<SimSystem>(config, std::move(traces));
}

TEST_F(ProfTest, ProfiledRunRecordsEveryStep)
{
    // Warm up unprofiled: a run decides once whether it is profiled.
    const std::unique_ptr<SimSystem> system = profSystem(true);
    system->run(500);
    system->startMeasurement();
    profEnable();
    system->run(2000);
    const ProfReport report = profReport();

    const ProfEntry *run = findEntry(report, "sim.run");
    const ProfEntry *step = findEntry(report, "sim.run;sim.step");
    const ProfEntry *data =
        findEntry(report, "sim.run;sim.step;secmem.data_access");
    const ProfEntry *dram = findEntry(report, "sim.run;sim.step;dram.access");
    ASSERT_NE(run, nullptr);
    ASSERT_NE(step, nullptr);
    ASSERT_NE(data, nullptr);
    ASSERT_NE(dram, nullptr);
    EXPECT_EQ(run->calls, 1u);
    EXPECT_EQ(step->calls, 4u * 2000);
    EXPECT_EQ(data->calls,
              system->secmem().stats().accesses(Traffic::Data));
    const ChannelActivity activity = system->dram().totalActivity();
    EXPECT_EQ(dram->calls, activity.reads + activity.writes);
    EXPECT_GT(dram->calls, data->calls); // the walk's requests count too
    // The step and its two layers are the whole tree: nothing nests
    // under them.
    EXPECT_EQ(report.entries.size(), 4u);
}

TEST_F(ProfTest, ProfiledTrafficOnlyRunHasNoDramScope)
{
    const std::unique_ptr<SimSystem> system = profSystem(false);
    profEnable();
    system->run(1000);
    const ProfReport report = profReport();
    const ProfEntry *step = findEntry(report, "sim.run;sim.step");
    const ProfEntry *data =
        findEntry(report, "sim.run;sim.step;secmem.data_access");
    ASSERT_NE(step, nullptr);
    ASSERT_NE(data, nullptr);
    EXPECT_EQ(step->calls, 4u * 1000);
    EXPECT_EQ(data->calls, 4u * 1000);
    EXPECT_EQ(findEntry(report, "sim.run;sim.step;dram.access"), nullptr);
}

TEST_F(ProfTest, UnprofiledRunRecordsNothing)
{
    const std::unique_ptr<SimSystem> system = profSystem(true);
    system->run(1000);
    profEnable();
    const ProfReport report = profReport();
    EXPECT_TRUE(report.entries.empty());
}

TEST_F(ProfTest, ApplyEnvRespectsPrecedence)
{
    std::string out;
    bool summary = false;

    ::setenv("MORPH_PROF", "1", 1);
    profApplyEnv(out, summary);
    EXPECT_TRUE(summary);
    EXPECT_TRUE(out.empty());

    summary = false;
    ::setenv("MORPH_PROF", "stderr", 1);
    profApplyEnv(out, summary);
    EXPECT_TRUE(summary);

    summary = false;
    ::setenv("MORPH_PROF", "0", 1);
    profApplyEnv(out, summary);
    EXPECT_FALSE(summary);
    EXPECT_TRUE(out.empty());

    ::setenv("MORPH_PROF", "prof-env.json", 1);
    profApplyEnv(out, summary);
    EXPECT_EQ(out, "prof-env.json");
    EXPECT_FALSE(summary);

    // An explicit --prof-out always wins over the environment.
    out = "explicit.json";
    ::setenv("MORPH_PROF", "other.json", 1);
    profApplyEnv(out, summary);
    EXPECT_EQ(out, "explicit.json");

    ::unsetenv("MORPH_PROF");
}

} // namespace
} // namespace morph
