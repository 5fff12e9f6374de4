/**
 * @file
 * Unit tests for the parallel sweep engine (common/run_pool): task
 * coverage, ordered result collection, deterministic seeding and
 * exception propagation, plus an end-to-end check that a parallel
 * simulation grid reproduces the serial results exactly.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/run_pool.hh"
#include "sim/simulator.hh"

namespace morph
{
namespace
{

TEST(RunPool, RunsEveryIndexExactlyOnce)
{
    // Sizes that share a factor with count / threads exercise the
    // claim order's stride search as well as the plain case.
    const std::pair<unsigned, std::size_t> shapes[] = {
        {4, 1000}, {3, 84}, {2, 64}, {1, 7}, {8, 5}, {3, 1}};
    for (const auto &[threads, count] : shapes) {
        RunPool pool(threads);
        EXPECT_EQ(pool.threads(), threads);
        std::vector<std::atomic<int>> hits(count);
        for (auto &h : hits)
            h = 0;
        pool.forEach(count, [&](std::size_t i) { ++hits[i]; });
        for (std::size_t i = 0; i < count; ++i) {
            EXPECT_EQ(hits[i].load(), 1)
                << threads << " threads, index " << i << " of " << count;
        }
    }
}

TEST(RunPool, EmptySessionIsANoop)
{
    RunPool pool(2);
    pool.forEach(0, [](std::size_t) { FAIL() << "task ran"; });
}

TEST(RunPool, SingleThreadStillWorks)
{
    RunPool pool(1);
    std::uint64_t sum = 0;
    // One worker: tasks run sequentially, no data race on sum.
    pool.forEach(100, [&](std::size_t i) { sum += i; });
    EXPECT_EQ(sum, 4950u);
}

TEST(RunPool, PoolIsReusableAcrossSessions)
{
    RunPool pool(3);
    for (int session = 0; session < 20; ++session) {
        std::atomic<std::uint64_t> sum{0};
        pool.forEach(64, [&](std::size_t i) { sum += i + 1; });
        EXPECT_EQ(sum.load(), 64u * 65u / 2);
    }
}

TEST(RunPool, UnbalancedLoadStillCoversAllTasks)
{
    RunPool pool(4);
    constexpr std::size_t count = 64;
    std::vector<std::atomic<int>> hits(count);
    for (auto &h : hits)
        h = 0;
    // The first quarter of the indices carries almost all the work;
    // the shared cursor must spread it over the workers without
    // losing or duplicating a task.
    pool.forEach(count, [&](std::size_t i) {
        volatile std::uint64_t spin = 0;
        const std::uint64_t rounds = i < count / 4 ? 200000 : 10;
        for (std::uint64_t k = 0; k < rounds; ++k)
            spin = spin + k;
        ++hits[i];
    });
    for (std::size_t i = 0; i < count; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(RunPool, BlockedTaskNeverHoldsBackTheOthers)
{
    RunPool pool(4);
    constexpr std::size_t count = 64;
    std::atomic<std::size_t> others{0};
    bool sawAll = false;
    pool.forEach(count, [&](std::size_t i) {
        if (i != 0) {
            ++others;
            return;
        }
        // Task 0 blocks its worker until every other task has run:
        // the remaining workers must claim all of them meanwhile.
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(10);
        while (others.load() != count - 1 &&
               std::chrono::steady_clock::now() < deadline)
            std::this_thread::yield();
        sawAll = others.load() == count - 1;
    });
    EXPECT_TRUE(sawAll);
    EXPECT_EQ(others.load(), count - 1);
}

TEST(RunPool, RethrowsLowestIndexedFailure)
{
    RunPool pool(4);
    std::atomic<int> ran{0};
    try {
        pool.forEach(256, [&](std::size_t i) {
            ++ran;
            if (i % 50 == 3) // 3, 53, 103, ... all fail
                throw std::runtime_error("task " + std::to_string(i));
        });
        FAIL() << "no exception propagated";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "task 3");
    }
    // The session drains fully even when tasks fail.
    EXPECT_EQ(ran.load(), 256);

    // The pool stays usable after a failed session.
    std::atomic<int> after{0};
    pool.forEach(8, [&](std::size_t) { ++after; });
    EXPECT_EQ(after.load(), 8);
}

TEST(SweepEngine, MapReturnsResultsInIndexOrder)
{
    SweepEngine engine(4);
    const std::vector<std::uint64_t> parallel =
        engine.map<std::uint64_t>(500,
                                  [](std::size_t i) { return i * i + 7; });
    ASSERT_EQ(parallel.size(), 500u);
    for (std::size_t i = 0; i < parallel.size(); ++i)
        EXPECT_EQ(parallel[i], i * i + 7);
}

TEST(SweepSeed, IsAPureFunctionOfTheRunKey)
{
    EXPECT_EQ(sweepSeed("mcf/sc64"), sweepSeed("mcf/sc64"));
    EXPECT_EQ(sweepSeed("mcf/sc64", 9), sweepSeed("mcf/sc64", 9));
    EXPECT_NE(sweepSeed("mcf/sc64"), sweepSeed("mcf/sc128"));
    EXPECT_NE(sweepSeed("mcf/sc64"), sweepSeed("lbm/sc64"));
    EXPECT_NE(sweepSeed("mcf/sc64", 0), sweepSeed("mcf/sc64", 1));
}

TEST(SweepSeed, SpreadsNearIdenticalKeys)
{
    // Near-identical run keys must land in unrelated parts of the
    // seed space (no shared high or low halves).
    std::set<std::uint64_t> seeds;
    for (const char *key : {"mcf/sc64", "mcf/sc65", "mcf/sc64 ",
                            "mcg/sc64", "mcf/sc64/0"}) {
        const std::uint64_t s = sweepSeed(key);
        EXPECT_TRUE(seeds.insert(s).second) << key;
        EXPECT_TRUE(seeds.insert(s >> 32).second) << key;
    }
}

/** The end-to-end determinism contract: a parallel simulation grid,
 *  each run with its own MorphScope/StatRegistry, reproduces the
 *  serial results bit for bit. */
TEST(SweepEngine, ParallelSimulationGridMatchesSerial)
{
    const std::string workloads[] = {"mcf", "libquantum"};
    const TreeConfig configs[] = {TreeConfig::sc64(),
                                  TreeConfig::morph()};

    SimOptions options;
    options.accessesPerCore = 800;
    options.warmupPerCore = 200;
    options.timing = true;
    options.footprintScale = 64.0;

    struct Cell
    {
        std::string report;
        double ipc = 0.0;
        std::uint64_t total = 0;
    };
    auto runCell = [&](std::size_t i) {
        SecureModelConfig config;
        config.tree = configs[i % 2];
        SimOptions cell_options = options;
        cell_options.seed = sweepSeed(workloads[i / 2] + "/" +
                                      std::to_string(i % 2));
        MorphScope scope{ScopeConfig()};
        const SimResult result =
            runByName(workloads[i / 2], config, cell_options, &scope);
        Cell cell;
        cell.ipc = result.ipc;
        cell.total = result.traffic.total();
        std::ostringstream text;
        scope.dumpText(text, "cell");
        cell.report = text.str();
        return cell;
    };

    std::vector<Cell> serial;
    for (std::size_t i = 0; i < 4; ++i)
        serial.push_back(runCell(i));

    SweepEngine engine(4);
    const std::vector<Cell> parallel = engine.map<Cell>(4, runCell);

    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(parallel[i].ipc, serial[i].ipc) << "cell " << i;
        EXPECT_EQ(parallel[i].total, serial[i].total) << "cell " << i;
        EXPECT_EQ(parallel[i].report, serial[i].report) << "cell " << i;
    }
}

} // namespace
} // namespace morph
