/**
 * @file
 * Unit tests for the morphscope stat registry, epoch series, and the
 * JSON/CSV exporters (round-trip through the common/json parser).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>
#include <thread>
#include <vector>

#include "common/json.hh"
#include "common/stat_registry.hh"

namespace morph
{
namespace
{

TEST(StatName, Contract)
{
    EXPECT_TRUE(isValidStatName("sim.ipc"));
    EXPECT_TRUE(isValidStatName("dram.ch0.row_hits"));
    EXPECT_TRUE(isValidStatName("a"));
    EXPECT_FALSE(isValidStatName(""));
    EXPECT_FALSE(isValidStatName("Traffic.Total"));
    EXPECT_FALSE(isValidStatName("ctr 1"));
    EXPECT_FALSE(isValidStatName("ctr-1"));
    EXPECT_FALSE(isValidStatName("ctr&up"));
}

TEST(StatRegistryDeathTest, RejectsInvalidAndDuplicateNames)
{
    StatRegistry registry;
    std::uint64_t v = 0;
    registry.counter("ok.name", &v);
    EXPECT_DEATH(registry.counter("Bad.Name", &v), "violates");
    EXPECT_DEATH(registry.counter("Traffic.Total", &v), "violates");
    EXPECT_DEATH(registry.counter("ok.name", &v), "twice");
    Histogram h(0.0, 1.0, 4);
    EXPECT_DEATH(registry.histogram("ok.name", &h), "twice");
    // A name the simulator registers, claimed twice.
    registry.gauge("sim.ipc", [] { return 1.0; });
    EXPECT_DEATH(registry.scalar("sim.ipc", 2.0), "twice");
}

TEST(StatRegistry, CountersGaugesAndLookup)
{
    StatRegistry registry;
    std::uint64_t reads = 7;
    registry.counter("reads", &reads, "read count");
    registry.counter(
        "twice.reads", [&reads]() { return 2 * reads; });
    registry.gauge("rate", [&reads]() { return double(reads) / 10.0; });
    registry.scalar("fixed", 3.5);

    EXPECT_EQ(registry.numScalars(), 4u);
    EXPECT_EQ(registry.scalarName(0), "reads");
    EXPECT_EQ(registry.scalarKind(0), StatKind::Counter);
    EXPECT_EQ(registry.scalarKind(2), StatKind::Gauge);
    EXPECT_EQ(registry.scalarDesc(0), "read count");
    EXPECT_DOUBLE_EQ(registry.value("reads"), 7.0);
    EXPECT_DOUBLE_EQ(registry.value("twice.reads"), 14.0);
    EXPECT_DOUBLE_EQ(registry.value("fixed"), 3.5);
    EXPECT_TRUE(std::isnan(registry.value("missing")));
    EXPECT_TRUE(registry.has("rate"));
    EXPECT_FALSE(registry.has("missing"));

    reads = 9; // live view: the registry reads through the pointer
    EXPECT_DOUBLE_EQ(registry.value("reads"), 9.0);
    EXPECT_DOUBLE_EQ(registry.value("twice.reads"), 18.0);
}

TEST(StatRegistry, HistogramSnapshots)
{
    StatRegistry registry;
    ExpHistogram latency;
    for (std::uint64_t v = 1; v <= 64; ++v)
        latency.record(v);
    registry.histogram("latency", &latency);

    ASSERT_EQ(registry.numHistograms(), 1u);
    const HistogramSnapshot snap = registry.histogramSnapshot(0);
    EXPECT_EQ(snap.count, 64u);
    EXPECT_LE(snap.p50, snap.p95);
    EXPECT_LE(snap.p95, snap.p99);
    EXPECT_FALSE(snap.buckets.empty());
    std::uint64_t bucket_total = 0;
    for (const auto &bucket : snap.buckets) {
        // Full bounds: distributions must be re-derivable from the
        // snapshot alone.
        EXPECT_LT(bucket.lo, bucket.hi);
        bucket_total += bucket.count;
    }
    EXPECT_EQ(bucket_total, 64u);
}

TEST(StatRegistry, FreezeDetachesFromComponents)
{
    StatRegistry registry;
    {
        // Component with a shorter lifetime than the registry.
        std::uint64_t hits = 5;
        registry.counter("hits", &hits);
        registry.freeze();
        hits = 99; // post-freeze mutations are invisible
    }
    EXPECT_DOUBLE_EQ(registry.value("hits"), 5.0);
}

TEST(EpochSeries, CounterDeltasSumToTotals)
{
    StatRegistry registry;
    std::uint64_t ticks = 100; // warm-up residue before baseline
    double level = 0.0;
    registry.counter("ticks", &ticks);
    registry.gauge("level", [&level]() { return level; });

    EpochSeries epochs;
    epochs.baseline(registry);

    std::uint64_t delta_sum = 0;
    for (int e = 0; e < 4; ++e) {
        ticks += std::uint64_t(10 + e);
        delta_sum += std::uint64_t(10 + e);
        level = double(e);
        epochs.sample(registry, 1000);
    }

    ASSERT_EQ(epochs.records().size(), 4u);
    double recorded = 0.0;
    for (const auto &record : epochs.records()) {
        EXPECT_EQ(record.accessesPerCore, 1000u);
        recorded += record.values[0];
        // Gauges report the value at the boundary, not a delta.
        EXPECT_DOUBLE_EQ(record.values[1],
                         double(record.index));
    }
    EXPECT_DOUBLE_EQ(recorded, double(delta_sum));
    // Deltas are measured from the baseline, not from zero.
    EXPECT_DOUBLE_EQ(recorded, double(ticks) - 100.0);
}

TEST(EpochSeries, PartialFinalEpochStillSumsToTotals)
{
    // A measured window of 8 accesses sampled every 3 produces epochs
    // of 3, 3 and 2: the short final epoch must keep counter deltas
    // summing exactly to the run totals, and stay rectangular.
    StatRegistry registry;
    std::uint64_t reads = 40; // warm-up residue before baseline
    registry.counter("reads", &reads);

    EpochSeries epochs;
    epochs.baseline(registry);

    const std::uint64_t window = 8;
    const std::uint64_t epoch = 3;
    std::uint64_t done = 0;
    while (done < window) {
        const std::uint64_t chunk = std::min(epoch, window - done);
        reads += 2 * chunk; // 2 counted events per access
        done += chunk;
        epochs.sample(registry, chunk);
    }

    ASSERT_EQ(epochs.records().size(), 3u);
    EXPECT_EQ(epochs.records()[0].accessesPerCore, 3u);
    EXPECT_EQ(epochs.records()[1].accessesPerCore, 3u);
    EXPECT_EQ(epochs.records()[2].accessesPerCore, 2u);

    double delta_sum = 0.0;
    std::uint64_t accesses = 0;
    for (const auto &record : epochs.records()) {
        ASSERT_EQ(record.values.size(), 1u);
        delta_sum += record.values[0];
        accesses += record.accessesPerCore;
    }
    EXPECT_EQ(accesses, window);
    EXPECT_DOUBLE_EQ(delta_sum, double(reads) - 40.0);
}

TEST(EpochSeries, EpochLargerThanWindowYieldsOnePartialEpoch)
{
    StatRegistry registry;
    std::uint64_t reads = 0;
    registry.counter("reads", &reads);
    EpochSeries epochs;
    epochs.baseline(registry);

    // window 5, epoch 1000: the only epoch is the partial one.
    reads = 5;
    epochs.sample(registry, 5);
    ASSERT_EQ(epochs.records().size(), 1u);
    EXPECT_EQ(epochs.records()[0].accessesPerCore, 5u);
    EXPECT_DOUBLE_EQ(epochs.records()[0].values[0], 5.0);
}

TEST(StatRegistry, FrozenRegistryIsSafeForConcurrentReaders)
{
    // The sweep engine runs one registry per run, but a frozen
    // registry is also read from multiple threads by report emission
    // in tests and tooling: freeze() must leave a self-contained,
    // immutable snapshot. Run under tsan, this pins the absence of
    // races between concurrent readers.
    StatRegistry registry;
    std::uint64_t reads = 123;
    double rate = 0.25;
    Histogram hist(0.0, 16.0, 8);
    for (int i = 0; i < 64; ++i)
        hist.record(double(i % 16));
    registry.counter("reads", &reads);
    registry.gauge("rate", [&rate]() { return rate; });
    registry.histogram("lat", &hist);
    registry.freeze();

    std::vector<std::string> reports(8);
    {
        std::vector<std::thread> readers;
        for (std::size_t t = 0; t < reports.size(); ++t) {
            readers.emplace_back([&, t]() {
                std::ostringstream os;
                registry.dumpText(os, "unit");
                for (std::size_t i = 0; i < registry.numScalars(); ++i)
                    os << registry.scalarValue(i);
                const HistogramSnapshot snap =
                    registry.histogramSnapshot(0);
                os << snap.count << snap.mean;
                reports[t] = os.str();
            });
        }
        for (std::thread &reader : readers)
            reader.join();
    }
    for (std::size_t t = 1; t < reports.size(); ++t)
        EXPECT_EQ(reports[t], reports[0]);
}

TEST(EpochSeries, StaysRectangularAcrossLateRegistration)
{
    StatRegistry registry;
    std::uint64_t a = 0;
    registry.counter("a", &a);
    EpochSeries epochs;
    epochs.baseline(registry);
    epochs.sample(registry, 10);
    registry.scalar("late", 42.0); // post-baseline: excluded
    epochs.sample(registry, 10);
    EXPECT_EQ(epochs.numStats(), 1u);
    for (const auto &record : epochs.records())
        EXPECT_EQ(record.values.size(), 1u);
}

TEST(Exporters, JsonRoundTripMatchesRegistry)
{
    StatRegistry registry;
    std::uint64_t reads = 12345;
    registry.counter("reads", &reads);
    registry.gauge("bad", []() { return std::nan(""); });
    registry.scalar("pi", 3.14159);
    ExpHistogram h;
    h.record(4);
    registry.histogram("lat", &h);

    RunMeta meta;
    meta.set("workload", "quoted \"name\"");

    EpochSeries epochs;
    epochs.baseline(registry);
    reads += 55;
    epochs.sample(registry, 500);

    std::ostringstream os;
    writeStatsJson(os, registry, meta, &epochs);

    bool ok = false;
    std::string error;
    const JsonValue doc = jsonParse(os.str(), ok, error);
    ASSERT_TRUE(ok) << error << "\n" << os.str();

    EXPECT_EQ(doc.find("schema")->asString(), "morphscope-v1");
    EXPECT_EQ(doc.find("meta")->find("workload")->asString(),
              "quoted \"name\"");
    const JsonValue *totals = doc.find("totals");
    EXPECT_DOUBLE_EQ(totals->find("reads")->asNumber(), 12400.0);
    EXPECT_DOUBLE_EQ(totals->find("pi")->asNumber(), 3.14159);
    // Non-finite gauges export as null and read back as NaN.
    EXPECT_TRUE(std::isnan(totals->find("bad")->asNumber()));
    EXPECT_EQ(doc.find("kinds")->find("reads")->asString(), "counter");
    EXPECT_EQ(doc.find("kinds")->find("pi")->asString(), "gauge");
    EXPECT_EQ(doc.find("histograms")->find("lat")->find("count")
                  ->asNumber(),
              1.0);

    const JsonValue *samples = doc.find("epochs")->find("samples");
    ASSERT_EQ(samples->size(), 1u);
    const JsonValue &sample = samples->elements()[0];
    EXPECT_DOUBLE_EQ(sample.find("accesses_per_core")->asNumber(),
                     500.0);
    // Stat order in "epochs.stats" matches the value arrays.
    EXPECT_EQ(doc.find("epochs")->find("stats")->elements()[0]
                  .asString(),
              "reads");
    EXPECT_DOUBLE_EQ(sample.find("values")->elements()[0].asNumber(),
                     55.0);
}

TEST(Exporters, CsvTotalsTable)
{
    StatRegistry registry;
    registry.scalar("a", 1.5);
    registry.scalar("b", 2.0);
    std::ostringstream os;
    writeStatsCsv(os, registry);
    EXPECT_EQ(os.str(), "stat,value\na,1.5\nb,2\n");
}

TEST(Exporters, CsvEpochRowsSumToTotalRow)
{
    StatRegistry registry;
    std::uint64_t n = 0;
    registry.counter("n", &n);
    EpochSeries epochs;
    epochs.baseline(registry);
    for (int e = 0; e < 3; ++e) {
        n += 10;
        epochs.sample(registry, 100);
    }
    std::ostringstream os;
    writeStatsCsv(os, registry, &epochs);

    std::istringstream in(os.str());
    std::string line;
    std::getline(in, line);
    EXPECT_EQ(line, "epoch,accesses_per_core,n");
    double sum = 0.0;
    for (int e = 0; e < 3; ++e) {
        std::getline(in, line);
        const std::size_t comma = line.rfind(',');
        sum += std::stod(line.substr(comma + 1));
    }
    EXPECT_DOUBLE_EQ(sum, 30.0);
    std::getline(in, line);
    EXPECT_EQ(line, "total,,30");
}

TEST(Exporters, CsvFieldQuoting)
{
    EXPECT_EQ(csvField("plain"), "plain");
    EXPECT_EQ(csvField("with,comma"), "\"with,comma\"");
    EXPECT_EQ(csvField("say \"hi\""), "\"say \"\"hi\"\"\"");
    EXPECT_EQ(csvField("line\nbreak"), "\"line\nbreak\"");
}

TEST(Exporters, TextReportUsesJsonFormatting)
{
    StatRegistry registry;
    registry.scalar("bloat", 2.9404499999999998);
    registry.gauge("nan", []() { return std::nan(""); });
    std::ostringstream os;
    registry.dumpText(os, "morphsim");
    EXPECT_EQ(os.str(), "morphsim.bloat 2.9404499999999998\n"
                        "morphsim.nan null\n");
}

} // namespace
} // namespace morph
