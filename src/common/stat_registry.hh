/**
 * @file
 * morphscope: the hierarchical statistics registry.
 *
 * Components register their counters, derived gauges and histograms
 * once, under dotted lowercase names ("traffic.ctr_encr.reads",
 * "dram.ch0.row_hits"); everything downstream — the morphsim text
 * report, the JSON/CSV exporters, epoch time-series sampling, the
 * morphbench CI matrix — reads the registry instead of plumbing
 * per-component stat structs by hand.
 *
 * Naming contract (enforced at registration, pinned by StatName.Contract):
 * every name matches [a-z0-9_.]+ and is unique within the registry.
 *
 * Three statistic kinds:
 *  - counter: monotonically non-decreasing totals (reads, overflows).
 *    Epoch sampling reports per-epoch deltas; deltas sum to totals.
 *  - gauge:   point-in-time derived values (hit rates, IPC, occupancy).
 *    Epoch sampling reports the value at the epoch boundary.
 *  - histogram: bucketed distributions with count/mean/percentiles.
 *
 * Registered entries hold non-owning pointers/closures into the
 * components; the registry must not outlive the system it observes.
 */

#ifndef MORPH_COMMON_STAT_REGISTRY_HH
#define MORPH_COMMON_STAT_REGISTRY_HH

#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "common/annotations.hh"
#include "common/stats.hh"

namespace morph
{

/** True if @p name is non-empty and matches [a-z0-9_.]+. */
bool isValidStatName(const std::string &name);

/** Statistic semantics (drives epoch-delta computation). */
enum class StatKind : std::uint8_t
{
    Counter, ///< monotonic total; epochs report deltas
    Gauge,   ///< point-in-time value; epochs report samples
};

/** Uniform read-only view of one histogram's current contents. */
struct HistogramSnapshot
{
    /** One non-empty bucket with both edges, so exporters and
     *  external tools can re-derive the distribution without knowing
     *  the source histogram's bucketing scheme. */
    struct Bucket
    {
        double lo = 0.0;          ///< lower edge (inclusive)
        double hi = 0.0;          ///< upper edge (exclusive)
        std::uint64_t count = 0;  ///< recorded weight
    };

    std::uint64_t count = 0;
    double mean = 0.0;
    double p50 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
    /** Every non-empty bucket, in ascending edge order. */
    std::vector<Bucket> buckets;
};

/** The morphscope stat registry. */
class StatRegistry
{
  public:
    StatRegistry() = default;

    /** Register a counter backed by a component member. */
    void counter(const std::string &name, const std::uint64_t *value,
                 const std::string &desc = "");

    /** Register a counter computed on demand. */
    void counter(const std::string &name,
                 std::function<std::uint64_t()> read,
                 const std::string &desc = "");

    /** Register a derived gauge computed on demand. */
    void gauge(const std::string &name, std::function<double()> read,
               const std::string &desc = "");

    /** Register a fixed post-run scalar (a constant gauge). */
    void scalar(const std::string &name, double value,
                const std::string &desc = "");

    /** Register a fixed-bucket histogram. */
    void histogram(const std::string &name, const Histogram *h,
                   const std::string &desc = "");

    /** Register an exponential-bucket histogram. */
    void histogram(const std::string &name, const ExpHistogram *h,
                   const std::string &desc = "");

    // --- scalar enumeration (registration order) ---

    std::size_t numScalars() const { return scalars_.size(); }
    const std::string &scalarName(std::size_t i) const;
    StatKind scalarKind(std::size_t i) const;
    const std::string &scalarDesc(std::size_t i) const;
    double scalarValue(std::size_t i) const;

    /** All scalar values, in registration order. */
    std::vector<double> snapshotScalars() const;

    /** Value by name; NaN if unregistered (lookup is linear). */
    double value(const std::string &name) const;

    /** True if a scalar or histogram of this name is registered. */
    bool has(const std::string &name) const;

    // --- histogram enumeration ---

    std::size_t numHistograms() const { return histograms_.size(); }
    const std::string &histogramName(std::size_t i) const;
    HistogramSnapshot histogramSnapshot(std::size_t i) const;

    /**
     * Materialize every entry: each scalar's closure is replaced by
     * its current value and each histogram by its current snapshot.
     * After freeze() the registry is self-contained and safe to read
     * after the observed components are destroyed. Call at the end of
     * a run, before the simulated system goes away.
     */
    void freeze();

    /**
     * Print "prefix.name value" lines for every scalar, then
     * "prefix.name.count/.mean/.p50/.p95/.p99" for every histogram —
     * the morphsim text report. Values are formatted exactly as the
     * JSON exporter formats them, so the two reports always agree.
     */
    void dumpText(std::ostream &os, const std::string &prefix) const;

  private:
    struct Scalar
    {
        std::string name;
        std::string desc;
        StatKind kind;
        std::function<double()> read;
    };

    struct Hist
    {
        std::string name;
        std::string desc;
        std::function<HistogramSnapshot()> snapshot;
    };

    void checkName(const std::string &name) const;

    // Registration and freeze() happen while the owning run is
    // single-threaded; after freeze() only the const readers run,
    // possibly from many threads (see FrozenRegistry tests).
    std::vector<Scalar> scalars_ MORPH_MAIN_THREAD;
    std::vector<Hist> histograms_ MORPH_MAIN_THREAD;
};

/** Free-form run metadata (workload, config, scale...) for exports. */
struct RunMeta
{
    std::vector<std::pair<std::string, std::string>> entries;

    /** Set (or overwrite) one key. */
    void set(const std::string &key, const std::string &value);

    /** Value for @p key, or "" if absent. */
    std::string get(const std::string &key) const;
};

/**
 * Epoch-sampled time series over a registry's scalars.
 *
 * baseline() pins the stat list and the counter base values (call it
 * at the measurement boundary); each sample() then records one epoch:
 * counter deltas since the previous sample and gauge values at the
 * boundary. Scalars registered after baseline() are excluded — the
 * series stays rectangular.
 */
class EpochSeries
{
  public:
    struct Record
    {
        std::uint64_t index;           ///< epoch number, from 0
        std::uint64_t accessesPerCore; ///< accesses in this epoch
        std::vector<double> values;    ///< per-stat delta or sample
    };

    /** Snapshot base values; fixes the stat set for the series. */
    void baseline(const StatRegistry &registry);

    /** Record one epoch of @p accesses_per_core accesses. */
    void sample(const StatRegistry &registry,
                std::uint64_t accesses_per_core);

    bool active() const { return baselined_; }
    std::size_t numStats() const { return prev_.size(); }
    const std::vector<Record> &records() const { return records_; }

  private:
    // Epoch state belongs to one simulation run; the sweep engine
    // gives every run its own series (never shared across workers).
    bool baselined_ MORPH_SHARD_LOCAL = false;
    std::vector<double> prev_ MORPH_SHARD_LOCAL;
    std::vector<Record> records_ MORPH_SHARD_LOCAL;
};

/**
 * Write the full morphscope JSON document: meta, scalar totals,
 * histograms, and (when @p epochs is non-null and active) the epoch
 * time series. Non-finite values export as null.
 */
void writeStatsJson(std::ostream &os, const StatRegistry &registry,
                    const RunMeta &meta,
                    const EpochSeries *epochs = nullptr);

/**
 * Write CSV: with an active epoch series, one row per epoch (counter
 * deltas / gauge samples) plus a final "total" row; without one, a
 * two-column name,value table of the totals.
 */
void writeStatsCsv(std::ostream &os, const StatRegistry &registry,
                   const EpochSeries *epochs = nullptr);

/** Quote @p field for CSV if it contains a comma, quote or newline. */
std::string csvField(const std::string &field);

} // namespace morph

#endif // MORPH_COMMON_STAT_REGISTRY_HH
