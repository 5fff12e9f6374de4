/**
 * @file
 * The trace feed against its sources: every core's entries through
 * the feed equal captureTrace() on a fresh source, whatever order the
 * cores pop in, and the producer thread starts and stops with the
 * system.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hh"
#include "sim/system.hh"
#include "sim/trace_feed.hh"
#include "workloads/trace_file.hh"
#include "workloads/trace_generators.hh"
#include "workloads/workload_db.hh"

namespace morph
{
namespace
{

constexpr unsigned cores = 4;

using Sources = std::vector<std::unique_ptr<TraceSource>>;

/** Makes core @p core's source; called twice per core, each call
 *  must return a fresh source with the same sequence. */
using SourceFactory = std::unique_ptr<TraceSource> (*)(unsigned core);

template <Pattern P>
std::unique_ptr<TraceSource>
patternSource(unsigned core)
{
    GeneratorParams params;
    params.regionBaseLine = LineAddr(core) << 20;
    params.regionLines = 1u << 20;
    params.footprintLines = 1u << 16;
    params.readPki = 10.0 + core;
    params.writeHotFraction = 0.05;
    params.seed = 17 + core;
    return makeGenerator(P, params);
}

/** A 37-event trace file: its cycle does not divide any ring size. */
std::unique_ptr<TraceSource>
fileSource(unsigned core)
{
    std::ostringstream text;
    Rng rng(99 + core);
    for (int k = 0; k < 37; ++k)
        text << rng.below(300) << (rng.below(3) == 0 ? " W " : " R ")
             << std::hex << rng.below(1u << 24) << std::dec << "\n";
    std::istringstream input(text.str());
    return std::make_unique<FileTraceSource>(input, "feed-test");
}

Sources
makeSources(SourceFactory make)
{
    Sources sources;
    for (unsigned core = 0; core < cores; ++core)
        sources.push_back(make(core));
    return sources;
}

std::vector<std::vector<TraceEntry>>
captureAll(SourceFactory make, std::size_t count)
{
    std::vector<std::vector<TraceEntry>> traces;
    for (unsigned core = 0; core < cores; ++core)
        traces.push_back(captureTrace(*make(core), count));
    return traces;
}

void
expectSameEntry(const TraceEntry &got, const TraceEntry &want,
                unsigned core, std::size_t index)
{
    ASSERT_EQ(got.gap, want.gap) << "core " << core << " entry " << index;
    ASSERT_EQ(got.type, want.type) << "core " << core << " entry " << index;
    ASSERT_EQ(got.line, want.line) << "core " << core << " entry " << index;
}

/** Entries per core: the rings wrap several times, and the count is
 *  a multiple of neither the chunk nor the checkpoint stride. */
constexpr std::size_t popsPerCore = 3 * TraceFeed::ringEntries + 123;

struct NamedFactory
{
    const char *name;
    SourceFactory make;
};

const NamedFactory factories[] = {
    {"Streaming", patternSource<Pattern::Streaming>},
    {"Random", patternSource<Pattern::Random>},
    {"HotCold", patternSource<Pattern::HotCold>},
    {"Mixed", patternSource<Pattern::Mixed>},
    {"File", fileSource},
};

TEST(TraceFeed, InterleavedPopsMatchCapturedTraces)
{
    // Cores pop in a seeded random order, as the clock-ordered
    // interleaving of a timed run does.
    for (const NamedFactory &factory : factories) {
        SCOPED_TRACE(factory.name);
        const auto want = captureAll(factory.make, popsPerCore);
        const Sources sources = makeSources(factory.make);
        TraceFeed feed(sources);
        feed.start();
        std::vector<std::size_t> popped(cores, 0);
        Rng order(5);
        std::size_t left = cores * popsPerCore;
        while (left > 0) {
            const unsigned core = unsigned(order.below(cores));
            if (popped[core] == popsPerCore)
                continue;
            expectSameEntry(feed.pop(core), want[core][popped[core]], core,
                            popped[core]);
            ++popped[core];
            --left;
        }
    }
}

TEST(TraceFeed, CoreAfterCorePopsMatchCapturedTraces)
{
    // One core drains its ring while the others stay full, as the
    // core-after-core loop of an untimed run does.
    for (const NamedFactory &factory : factories) {
        SCOPED_TRACE(factory.name);
        const auto want = captureAll(factory.make, popsPerCore);
        const Sources sources = makeSources(factory.make);
        TraceFeed feed(sources);
        feed.start();
        for (unsigned core = 0; core < cores; ++core)
            for (std::size_t k = 0; k < popsPerCore; ++k)
                expectSameEntry(feed.pop(core), want[core][k], core, k);
    }
}

TEST(TraceFeed, SlowSourcesStillArriveInOrder)
{
    // Every next() yields, so the consumer keeps finding its ring
    // empty: it fills a chunk itself when the producer is not on the
    // ring, and waits for the producer's chunk when it is.
    struct SlowSource : TraceSource
    {
        std::unique_ptr<TraceSource> inner;
        TraceEntry
        next() override
        {
            std::this_thread::yield();
            return inner->next();
        }
    };
    const SourceFactory make = patternSource<Pattern::Random>;
    const std::size_t count = TraceFeed::ringEntries + 77;
    const auto want = captureAll(make, count);
    Sources sources;
    for (unsigned core = 0; core < cores; ++core) {
        auto slow = std::make_unique<SlowSource>();
        slow->inner = make(core);
        sources.push_back(std::move(slow));
    }
    TraceFeed feed(sources);
    feed.start();
    for (std::size_t k = 0; k < count; ++k)
        for (unsigned core = 0; core < cores; ++core)
            expectSameEntry(feed.pop(core), want[core][k], core, k);
}

TEST(TraceFeed, SourceExceptionReachesThePopThatNeedsIt)
{
    // Core 2's source throws when asked for entry failAt, on whichever
    // thread asks. Its earlier entries still arrive, the pop for
    // failAt rethrows (again on a retry), and the other cores run on.
    struct ThrowingSource : TraceSource
    {
        std::unique_ptr<TraceSource> inner;
        std::size_t left;
        TraceEntry
        next() override
        {
            if (left-- == 0)
                throw std::runtime_error("source failed");
            return inner->next();
        }
    };
    const SourceFactory make = patternSource<Pattern::HotCold>;
    const std::size_t failAt = TraceFeed::ringEntries + 300;
    const auto want = captureAll(make, 2 * failAt);
    Sources sources = makeSources(make);
    auto failing = std::make_unique<ThrowingSource>();
    failing->inner = std::move(sources[2]);
    failing->left = failAt;
    sources[2] = std::move(failing);
    TraceFeed feed(sources);
    feed.start();
    for (std::size_t k = 0; k < failAt; ++k)
        for (unsigned core = 0; core < cores; ++core)
            expectSameEntry(feed.pop(core), want[core][k], core, k);
    EXPECT_THROW(feed.pop(2), std::runtime_error);
    EXPECT_THROW(feed.pop(2), std::runtime_error);
    for (std::size_t k = failAt; k < 2 * failAt; ++k)
        for (unsigned core : {0u, 1u, 3u})
            expectSameEntry(feed.pop(core), want[core][k], core, k);
}

/** Threads of this process, or -1 where /proc/self/status is not
 *  readable. */
int
threadCount()
{
    std::ifstream status("/proc/self/status");
    std::string key;
    while (status >> key) {
        if (key == "Threads:") {
            int threads = -1;
            status >> threads;
            return threads;
        }
        status.ignore(1 << 16, '\n');
    }
    return -1;
}

/** threadCount() once helper threads have settled: ThreadSanitizer
 *  starts its own thread beside the process's first new thread, so
 *  one thread is started and joined before the count. */
int
baselineThreadCount()
{
    std::thread([] {}).join();
    return threadCount();
}

/** Four workloads, one per generator pattern. */
Sources
systemSources(const SystemConfig &config)
{
    Sources sources;
    const char *names[cores] = {"mcf", "soplex", "milc", "GemsFDTD"};
    for (unsigned core = 0; core < cores; ++core)
        sources.push_back(makeWorkloadTrace(*findWorkload(names[core]),
                                            core, cores,
                                            config.secmem.memBytes, 3));
    return sources;
}

SystemConfig
systemConfig(bool timing)
{
    SystemConfig config;
    config.secmem.tree = TreeConfig::morph();
    config.numCores = cores;
    config.timing = timing;
    return config;
}

TEST(TraceFeed, SystemBuiltButNeverRunStartsNoThread)
{
    const int before = baselineThreadCount();
    if (before < 0)
        GTEST_SKIP() << "/proc/self/status not readable";
    const SystemConfig config = systemConfig(true);
    {
        SimSystem system(config, systemSources(config));
        EXPECT_EQ(threadCount(), before);
    }
    EXPECT_EQ(threadCount(), before);
}

TEST(TraceFeed, DestroyingARunningSystemJoinsTheProducer)
{
    const int before = baselineThreadCount();
    if (before < 0)
        GTEST_SKIP() << "/proc/self/status not readable";
    const SystemConfig config = systemConfig(true);
    // One access: the producer has barely started when the system
    // dies. Several thousand: it has parked on full rings.
    for (const std::uint64_t accesses : {1u, 5000u}) {
        {
            SimSystem system(config, systemSources(config));
            system.run(accesses);
            EXPECT_EQ(threadCount(), before + 1);
        }
        EXPECT_EQ(threadCount(), before) << accesses << " accesses";
    }
}

TEST(TraceFeed, StartsOnceAndOnlyWhenAsked)
{
    // A feed that never starts and one started twice both destroy
    // cleanly.
    const Sources sources = makeSources(patternSource<Pattern::Mixed>);
    TraceFeed never(sources);
    EXPECT_FALSE(never.started());
    TraceFeed feed(sources);
    feed.start();
    EXPECT_TRUE(feed.started());
    feed.start(); // a second start is a no-op
    feed.pop(0);
}

/**
 * A system run in two phases (warm-up, then measurement) consumes
 * exactly the first warmup + measured entries of every core's source:
 * each core's instruction counts equal the sums of gap + 1 over those
 * entries of a fresh capture, on both sides of the boundary, and the
 * measured data reads and writes equal the captured types.
 */
void
expectSystemConsumesCapturedTraces(bool timing)
{
    const SystemConfig config = systemConfig(timing);
    // Neither phase is a multiple of the chunk or the checkpoint
    // stride, and together they wrap every ring.
    const std::uint64_t warmup = 1007, measured = 5003;
    SimSystem system(config, systemSources(config));
    system.run(warmup);
    system.startMeasurement();
    system.run(measured);

    const Sources fresh = systemSources(config);
    std::uint64_t reads = 0, writes = 0;
    for (unsigned core = 0; core < cores; ++core) {
        const auto entries =
            captureTrace(*fresh[core], std::size_t(warmup + measured));
        std::uint64_t before = 0, after = 0;
        for (std::size_t k = 0; k < entries.size(); ++k) {
            const std::uint64_t instructions = entries[k].gap + 1;
            if (k < warmup) {
                before += instructions;
                continue;
            }
            after += instructions;
            (entries[k].type == AccessType::Read ? reads : writes) += 1;
        }
        const Core &c = system.core(core);
        EXPECT_EQ(c.accesses(), warmup + measured) << "core " << core;
        EXPECT_EQ(c.instructions(), before + after) << "core " << core;
        EXPECT_EQ(c.measuredInstructions(), after) << "core " << core;
    }
    const TrafficStats &stats = system.secmem().stats();
    EXPECT_EQ(stats.reads[unsigned(Traffic::Data)], reads);
    EXPECT_EQ(stats.writes[unsigned(Traffic::Data)], writes);
}

TEST(TraceFeed, TimedSystemConsumesCapturedTraces)
{
    expectSystemConsumesCapturedTraces(true);
}

TEST(TraceFeed, UntimedSystemConsumesCapturedTraces)
{
    expectSystemConsumesCapturedTraces(false);
}

} // namespace
} // namespace morph
