/**
 * @file
 * Integration tests: cores + secure memory + DRAM, end to end.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdlib>
#include <deque>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "sim/core.hh"
#include "sim/simulator.hh"
#include "sim/system.hh"

namespace morph
{
namespace
{

SimOptions
quickOptions()
{
    SimOptions options;
    options.accessesPerCore = 8000;
    options.warmupPerCore = 2000;
    options.timing = true;
    return options;
}

SecureModelConfig
configFor(TreeConfig tree)
{
    SecureModelConfig config;
    config.tree = std::move(tree);
    return config;
}

TEST(CoreModel, GapsAdvanceClock)
{
    struct FixedTrace : TraceSource
    {
        TraceEntry
        next() override
        {
            return {40, AccessType::Write, 0};
        }
    } trace;
    Core core(0, CoreConfig{});
    const TraceEntry entry = trace.next();
    core.beginEntry(entry);
    EXPECT_EQ(core.clock(), 10u); // 40 instructions at 4-wide
    EXPECT_EQ(core.instructions(), 41u);
    core.completeEntry(entry, 0);
    EXPECT_EQ(core.accesses(), 1u);
}

TEST(CoreModel, RobLimitsRunahead)
{
    struct ReadTrace : TraceSource
    {
        TraceEntry
        next() override
        {
            return {0, AccessType::Read, 0};
        }
    } trace;
    Core core(0, CoreConfig{.robSize = 4, .retireWidth = 4});
    // Issue reads completing at cycle 1000; with a 4-entry window the
    // 5th read must wait for the 1st.
    for (int i = 0; i < 4; ++i) {
        const TraceEntry entry = trace.next();
        core.beginEntry(entry);
        core.completeEntry(entry, 1000);
    }
    EXPECT_LT(core.clock(), 1000u);
    core.beginEntry(trace.next());
    EXPECT_GE(core.clock(), 1000u);
}

TEST(CoreModel, WritesNeverBlock)
{
    struct WriteTrace : TraceSource
    {
        TraceEntry
        next() override
        {
            return {0, AccessType::Write, 0};
        }
    } trace;
    Core core(0, CoreConfig{.robSize = 4, .retireWidth = 4});
    for (int i = 0; i < 100; ++i) {
        const TraceEntry entry = trace.next();
        core.beginEntry(entry);
        core.completeEntry(entry, 1u << 30);
    }
    EXPECT_LT(core.clock(), 100u);
}

TEST(CoreModel, DrainWaitsForOutstanding)
{
    struct ReadTrace : TraceSource
    {
        TraceEntry
        next() override
        {
            return {0, AccessType::Read, 0};
        }
    } trace;
    Core core(0, CoreConfig{});
    const TraceEntry entry = trace.next();
    core.beginEntry(entry);
    core.completeEntry(entry, 777);
    core.drain();
    EXPECT_GE(core.clock(), 777u);
}

TEST(CoreModel, LargestGapDoesNotWrap)
{
    // A trace file clamps its gaps to 2^32 - 1; in 32-bit arithmetic
    // that gap would count 0 instructions and 0 cycles.
    struct HugeGapTrace : TraceSource
    {
        TraceEntry
        next() override
        {
            return {~std::uint32_t(0), AccessType::Read, 0};
        }
    } trace;
    Core core(0, CoreConfig{});
    core.beginEntry(trace.next());
    EXPECT_EQ(core.instructions(), std::uint64_t(1) << 32);
    EXPECT_EQ(core.clock(), std::uint64_t(1) << 30); // ceil((2^32-1)/4)
}

TEST(CoreModel, RingMatchesUnboundedQueue)
{
    // The outstanding-read ring against the unbounded queue it
    // replaced, on seeded gaps (0 included), types and completion
    // times, at ROB sizes that fill it, wrap it and grow it. The
    // second pass also completes reads at or before the clock, which
    // the ring leaves out and the queue keeps.
    struct RandomTrace : TraceSource
    {
        Rng rng{5};
        TraceEntry
        next() override
        {
            const auto gap = std::uint32_t(rng.below(4) == 0 ? 0
                                                             : rng.below(40));
            return {gap, rng.below(3) == 0 ? AccessType::Write
                                           : AccessType::Read,
                    0};
        }
    };
    for (const bool finished : {false, true})
    for (const unsigned rob : {0u, 1u, 2u, 3u, 17u, 64u, 192u, 1000u}) {
        RandomTrace trace, replay;
        const CoreConfig config{.robSize = rob, .retireWidth = 4};
        Core core(0, config);
        std::deque<std::pair<std::uint64_t, Cycle>> queue;
        Cycle clock = 0;
        std::uint64_t instructions = 0;
        const auto retire = [&](std::uint64_t floor) {
            while (!queue.empty() && queue.front().first <= floor) {
                clock = std::max(clock, queue.front().second);
                queue.pop_front();
            }
        };
        Rng latency(rob + 1);
        for (int i = 0; i < 20000; ++i) {
            const TraceEntry entry = trace.next();
            core.beginEntry(entry);
            const TraceEntry expected = replay.next();
            clock += (expected.gap + 3) / 4;
            instructions += expected.gap + 1;
            if (instructions > rob)
                retire(instructions - rob);
            ASSERT_EQ(core.clock(), clock)
                << "rob " << rob << " entry " << i << " finished "
                << finished;
            const Cycle done =
                finished && latency.below(2) == 0
                    ? clock - latency.below(std::min<Cycle>(clock, 50) + 1)
                    : clock + latency.below(2000);
            core.completeEntry(entry, done);
            if (expected.type == AccessType::Read)
                queue.emplace_back(instructions, done);
        }
        core.drain();
        retire(~std::uint64_t(0));
        EXPECT_EQ(core.clock(), clock)
            << "rob " << rob << " finished " << finished;
    }
}

// SimSystem's core schedule (the tie rule in sim/system.hh): timed
// runs on traces full of ties, pinned per core and by a traffic/DRAM
// digest. Gap-0 entries and identical per-core traces put cores on
// equal clocks again and again, so a changed tie-break or a skipped
// rescan of the cores moves some core's cycles or the DRAM's order of
// service. A moved pin is a change to simulated behaviour.

/** A seeded stream over @p lines lines; @p zero_gaps of the entries
 *  have gap 0, the rest a gap below 16. */
class TieTrace : public TraceSource
{
  public:
    TieTrace(std::uint64_t seed, std::uint64_t lines, double zero_gaps)
        : rng_(seed), lines_(lines), zeroGaps_(zero_gaps)
    {}

    TraceEntry
    next() override
    {
        const std::uint32_t gap =
            rng_.chance(zeroGaps_) ? 0 : std::uint32_t(rng_.below(16));
        const AccessType type =
            rng_.chance(0.3) ? AccessType::Write : AccessType::Read;
        return {gap, type, rng_.below(lines_)};
    }

  private:
    Rng rng_;
    std::uint64_t lines_;
    double zeroGaps_;
};

struct SchedulePin
{
    const char *name;
    bool identicalTraces; ///< every core replays seed 1's stream
    double zeroGaps;
    std::array<Cycle, 4> cycles;
    std::array<std::uint64_t, 4> instructions;
    std::uint64_t digest;
};

void
PrintTo(const SchedulePin &pin, std::ostream *os)
{
    *os << pin.name;
}

/** Warm up, measure, then run on: three run() calls, each starting
 *  from the cores' clocks where the last one left them. */
std::unique_ptr<SimSystem>
runSchedule(const SchedulePin &pin)
{
    SystemConfig config;
    config.secmem.memBytes = 1ull << 30;
    config.secmem.tree = TreeConfig::morph();
    config.secmem.metadataCacheBytes = 16 * 1024;
    std::vector<std::unique_ptr<TraceSource>> traces;
    for (unsigned c = 0; c < config.numCores; ++c)
        traces.push_back(std::make_unique<TieTrace>(
            pin.identicalTraces ? 1 : c + 1, 1u << 16, pin.zeroGaps));
    auto system = std::make_unique<SimSystem>(config, std::move(traces));
    system->run(3000);
    system->startMeasurement();
    system->run(5000);
    system->run(2000);
    system->finishRun();
    return system;
}

std::uint64_t
scheduleDigest(const SimSystem &system)
{
    std::uint64_t digest = 0xcbf29ce484222325ull;
    const auto mix = [&digest](std::uint64_t value) {
        for (unsigned byte = 0; byte < 8; ++byte) {
            digest ^= (value >> (8 * byte)) & 0xff;
            digest *= 0x100000001b3ull;
        }
    };
    const TrafficStats &t = system.secmem().stats();
    for (unsigned c = 0; c < numTrafficCategories; ++c) {
        mix(t.reads[c]);
        mix(t.writes[c]);
    }
    for (unsigned ch = 0; ch < system.dram().config().channels; ++ch) {
        const ChannelActivity &a = system.dram().activity(ch);
        for (const std::uint64_t v :
             {a.reads, a.writes, a.activates, a.rowHits, a.rowClosed,
              a.rowConflicts, a.busBusyCycles})
            mix(v);
    }
    return digest;
}

// Recorded before the schedule scanned the cores once per burst.
constexpr SchedulePin schedulePins[] = {
    {"IdenticalTraces", true, 0.7,
     {673984, 674348, 673352, 673192},
     {22714, 22714, 22714, 22714},
     0x0d767801b1b4438full},
    {"AllGapsZero", false, 1.0,
     {994700, 993344, 992872, 991952},
     {7000, 7000, 7000, 7000},
     0x9f4490ced5b244f6ull},
    {"IdenticalAllGapsZero", true, 1.0,
     {737464, 736252, 735620, 735252},
     {7000, 7000, 7000, 7000},
     0x0b268e5c6a13ffd9ull},
};

class SimSchedule : public ::testing::TestWithParam<SchedulePin>
{
};

TEST_P(SimSchedule, CoresAndTrafficMatchPin)
{
    const SchedulePin &pin = GetParam();
    const std::unique_ptr<SimSystem> system = runSchedule(pin);
    for (unsigned c = 0; c < 4; ++c) {
        EXPECT_EQ(system->core(c).measuredCycles(), pin.cycles[c])
            << "core " << c;
        EXPECT_EQ(system->core(c).measuredInstructions(),
                  pin.instructions[c])
            << "core " << c;
        EXPECT_EQ(system->core(c).measuredAccesses(), 7000u)
            << "core " << c;
    }
    EXPECT_EQ(scheduleDigest(*system), pin.digest);
}

INSTANTIATE_TEST_SUITE_P(
    Ties, SimSchedule, ::testing::ValuesIn(schedulePins),
    [](const ::testing::TestParamInfo<SchedulePin> &info) {
        return std::string(info.param.name);
    });

TEST(Simulation, DeterministicAcrossRuns)
{
    const auto options = quickOptions();
    const auto config = configFor(TreeConfig::sc64());
    const SimResult a = runByName("omnetpp", config, options);
    const SimResult b = runByName("omnetpp", config, options);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.traffic.total(), b.traffic.total());
}

TEST(Simulation, NonSecureIsFasterThanSecure)
{
    const auto options = quickOptions();
    auto secure = configFor(TreeConfig::sc64());
    auto nonsecure = secure;
    nonsecure.secure = false;
    const SimResult s = runByName("mcf", secure, options);
    const SimResult n = runByName("mcf", nonsecure, options);
    EXPECT_GT(n.ipc, s.ipc);
    EXPECT_DOUBLE_EQ(n.bloat(), 1.0);
    EXPECT_GT(s.bloat(), 1.0);
}

TEST(Simulation, CompactTreeWinsOnRandomAccess)
{
    // The headline ordering (Fig 15) on a random-access workload:
    // MorphCtr-128 > SC-64 > VAULT.
    const auto options = quickOptions();
    const SimResult vault =
        runByName("mcf", configFor(TreeConfig::vault()), options);
    const SimResult sc64 =
        runByName("mcf", configFor(TreeConfig::sc64()), options);
    const SimResult morph =
        runByName("mcf", configFor(TreeConfig::morph()), options);
    EXPECT_GT(sc64.ipc, vault.ipc);
    EXPECT_GT(morph.ipc, sc64.ipc);
    EXPECT_LT(morph.bloat(), sc64.bloat());
    EXPECT_LT(sc64.bloat(), vault.bloat());
}

TEST(Simulation, StreamingWorkloadsSeeSmallGaps)
{
    // Fig 15: libquantum-style workloads perform "as good as the
    // baseline" — metadata reuse hides the tree.
    const auto options = quickOptions();
    const SimResult sc64 =
        runByName("libquantum", configFor(TreeConfig::sc64()), options);
    const SimResult morph =
        runByName("libquantum", configFor(TreeConfig::morph()),
                  options);
    EXPECT_NEAR(morph.ipc / sc64.ipc, 1.0, 0.05);
}

TEST(Simulation, MixesRun)
{
    const auto options = quickOptions();
    const SimResult result =
        runByName("mix1", configFor(TreeConfig::morph()), options);
    EXPECT_GT(result.ipc, 0.0);
    EXPECT_GT(result.traffic.accesses(Traffic::Data), 0u);
}

TEST(Simulation, TrafficOnlyModeSkipsDram)
{
    auto options = quickOptions();
    options.timing = false;
    const SimResult result =
        runByName("gcc", configFor(TreeConfig::sc64()), options);
    EXPECT_EQ(result.dram.reads + result.dram.writes, 0u);
    EXPECT_GT(result.traffic.total(), 0u);
}

TEST(Simulation, EnergyReportConsistent)
{
    const auto options = quickOptions();
    const SimResult result =
        runByName("milc", configFor(TreeConfig::sc64()), options);
    EXPECT_GT(result.energy.seconds, 0.0);
    EXPECT_GT(result.energy.dramJ, 0.0);
    EXPECT_GT(result.energy.systemJ, result.energy.dramJ);
    EXPECT_NEAR(result.energy.edp,
                result.energy.systemJ * result.energy.seconds,
                result.energy.edp * 1e-9);
    EXPECT_NEAR(result.energy.systemPowerW,
                result.energy.systemJ / result.energy.seconds, 1e-9);
}

TEST(Simulation, MeasurementExcludesWarmup)
{
    auto options = quickOptions();
    const auto config = configFor(TreeConfig::sc64());
    const SimResult measured = runByName("milc", config, options);

    auto no_warmup = options;
    no_warmup.warmupPerCore = 0;
    const SimResult cold = runByName("milc", config, no_warmup);
    // Both measure the same number of accesses.
    EXPECT_EQ(measured.traffic.accesses(Traffic::Data),
              cold.traffic.accesses(Traffic::Data));
}

TEST(Simulation, EvaluationListMatchesPaperLayout)
{
    const auto names = evaluationWorkloads();
    ASSERT_EQ(names.size(), 28u);
    EXPECT_EQ(names.front(), "mcf");
    EXPECT_EQ(names[16], "mix1");
    EXPECT_EQ(names.back(), "cc-web");
}

TEST(Simulation, GeomeanBasics)
{
    EXPECT_DOUBLE_EQ(geomean({4.0, 1.0}), 2.0);
    EXPECT_DOUBLE_EQ(geomean({}), 0.0);
    EXPECT_NEAR(geomean({1.0, 1.0, 8.0}), 2.0, 1e-12);
}

TEST(Simulation, SimOptionsFromEnv)
{
    setenv("MORPH_SIM_ACCESSES", "1234", 1);
    setenv("MORPH_SIM_WARMUP", "99", 1);
    const SimOptions options = SimOptions::fromEnv();
    EXPECT_EQ(options.accessesPerCore, 1234u);
    EXPECT_EQ(options.warmupPerCore, 99u);
    unsetenv("MORPH_SIM_ACCESSES");
    unsetenv("MORPH_SIM_WARMUP");
}

TEST(Simulation, SimOptionsFromEnvRejectsMalformedValues)
{
    // atoll read "2e6" as 2 and "junk" as 0 (then ignored it); every
    // value must now parse whole, and accesses must be >= 1.
    for (const char *bad : {"2e6", "junk", "", "-5", "+5", " 5", "0",
                            "99999999999999999999"}) {
        setenv("MORPH_SIM_ACCESSES", bad, 1);
        EXPECT_THROW(SimOptions::fromEnv(), std::invalid_argument)
            << "'" << bad << "'";
    }
    unsetenv("MORPH_SIM_ACCESSES");
    setenv("MORPH_SIM_WARMUP", "0", 1);
    EXPECT_EQ(SimOptions::fromEnv().warmupPerCore, 0u);
    setenv("MORPH_SIM_WARMUP", "1k", 1);
    try {
        SimOptions::fromEnv();
        ADD_FAILURE() << "MORPH_SIM_WARMUP=1k accepted";
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find("MORPH_SIM_WARMUP"),
                  std::string::npos);
    }
    unsetenv("MORPH_SIM_WARMUP");
}

TEST(Simulation, StrictNumberParsers)
{
    EXPECT_EQ(parseCount("0"), 0u);
    EXPECT_EQ(parseCount("18446744073709551615"), UINT64_MAX);
    EXPECT_FALSE(parseCount("18446744073709551616"));
    EXPECT_FALSE(parseCount("1.5"));
    EXPECT_FALSE(parseCount("-0"));
    EXPECT_EQ(parsePositive("2e6"), 2e6);
    EXPECT_EQ(parsePositive("0.5"), 0.5);
    for (const char *bad : {"0", "-1", "inf", "nan", "8x", "", " 8"})
        EXPECT_FALSE(parsePositive(bad)) << "'" << bad << "'";

    setenv("MORPH_SIM_SCALE", "0.5", 1);
    EXPECT_THROW(envNumber("MORPH_SIM_SCALE", 1.0), std::invalid_argument);
    setenv("MORPH_SIM_SCALE", "8", 1);
    EXPECT_EQ(envNumber("MORPH_SIM_SCALE", 1.0), 8.0);
    unsetenv("MORPH_SIM_SCALE");
    EXPECT_FALSE(envNumber("MORPH_SIM_SCALE", 1.0));
}

} // namespace
} // namespace morph
