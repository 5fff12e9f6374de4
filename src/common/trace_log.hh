/**
 * @file
 * Request-lifecycle tracing in Chrome trace_event JSON.
 *
 * Collects duration ("X"), instant ("i") and metadata ("M") events and
 * writes the JSON-array format that chrome://tracing and Perfetto load
 * directly. Timestamps are in CPU cycles, displayed as microseconds
 * (1 cycle == 1 us on the timeline) — absolute times are simulated
 * cycles, only relative structure matters.
 *
 * The simulator samples 1-in-N data accesses (see
 * ScopeConfig::traceSampleEvery); each sampled access emits a nested
 * span tree: the access span on the core's track, tree-walk fetch
 * spans per level, and DRAM service spans (queue + burst) on the
 * owning channel's track.
 *
 * Event storage is bounded (maxEvents); once full, further events are
 * dropped and dropped() reports how many, so a runaway trace can never
 * exhaust memory. Loss is never silent: the drop count rides in the
 * written document's "morph" metadata block, surfaces as the
 * trace.dropped_events stat, and the drivers warn on stderr when it
 * is nonzero.
 */

#ifndef MORPH_COMMON_TRACE_LOG_HH
#define MORPH_COMMON_TRACE_LOG_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "common/annotations.hh"

namespace morph
{

/** Chrome trace_event collector. */
class TraceLog
{
  public:
    /** @param max_events hard cap on stored events. */
    explicit TraceLog(std::size_t max_events = 2'000'000)
        : maxEvents_(max_events)
    {}

    /**
     * Duration event ("ph":"X") on track @p tid.
     *
     * @param name static display name (must outlive the log)
     * @param cat  static category string
     * @param ts   start, in cycles
     * @param dur  duration, in cycles
     * @param arg_line line-address argument; emitted when != noLine
     */
    void complete(const char *name, const char *cat, std::uint32_t tid,
                  std::uint64_t ts, std::uint64_t dur,
                  std::uint64_t arg_line = noLine);

    /** Instant event ("ph":"i", thread scope). */
    void instant(const char *name, const char *cat, std::uint32_t tid,
                 std::uint64_t ts);

    /** Name track @p tid ("thread_name" metadata event). */
    void nameTrack(std::uint32_t tid, const std::string &name);

    /** Stored events (metadata included). */
    std::size_t size() const;

    /** Events discarded after the cap was hit. */
    std::uint64_t dropped() const { return dropped_; }

    /** Write the complete JSON document. */
    void write(std::ostream &os) const;

    /** Write to @p path; false (with errno intact) on I/O failure. */
    bool writeTo(const std::string &path) const;

    static constexpr std::uint64_t noLine = ~std::uint64_t(0);

  private:
    struct Event
    {
        const char *name;
        const char *cat;
        std::uint64_t ts;
        std::uint64_t dur;
        std::uint64_t line;
        std::uint32_t tid;
        char phase; // 'X' or 'i'
    };

    bool roomFor();

    // A TraceLog belongs to one run's MorphScope; sweep workers never
    // share one (each run owns its whole observability context).
    std::size_t maxEvents_ MORPH_SHARD_LOCAL;
    std::vector<Event> events_ MORPH_SHARD_LOCAL;
    std::vector<std::pair<std::uint32_t, std::string>> trackNames_
        MORPH_SHARD_LOCAL;
    std::uint64_t dropped_ MORPH_SHARD_LOCAL = 0;
};

} // namespace morph

#endif // MORPH_COMMON_TRACE_LOG_HH
