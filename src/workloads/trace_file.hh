/**
 * @file
 * Trace file I/O: bring-your-own LLC-miss traces.
 *
 * The simulator is trace-driven; besides the synthetic generators, a
 * user with real USIMM-style traces can replay them. The format is
 * one event per line, whitespace separated:
 *
 *     <gap> <R|W> <line-address-hex>
 *
 * e.g. "37 R 1a2b3c" — 37 non-memory instructions, then a read of
 * cacheline 0x1a2b3c. '#' starts a comment; blank and comment-only
 * lines are skipped. The gap is decimal digits and the address hex
 * digits with an optional 0x prefix; neither takes a sign. Any other
 * line — a non-numeric or signed gap, a bad type, a bad or signed
 * address, a fourth field — fails the load with an error naming
 * file:line, as does a trace with no events: a truncated record must
 * never be silently dropped. Gaps wider than 32 bits are clamped to
 * the uint32 maximum with a warning.
 *
 * FileTraceSource loads the whole trace into memory and replays it
 * cyclically (simulations usually need more events than a captured
 * trace holds; cycling a long trace is the standard USIMM practice).
 * A copy shares the loaded events, which are immutable, and replays
 * them with its own cursor, so one copy per core costs no memory. The
 * parser does not know the memory size: highest() lets the caller
 * reject a line past the protected memory before the run.
 */

#ifndef MORPH_WORKLOADS_TRACE_FILE_HH
#define MORPH_WORKLOADS_TRACE_FILE_HH

#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "workloads/trace.hh"

namespace morph
{

/** Replays a trace file cyclically. */
class FileTraceSource : public TraceSource
{
  public:
    /**
     * Load the trace at @p path. On an unreadable file, a malformed
     * record or a trace with no events, returns nullopt and sets
     * @p error to a message naming the file (and line); morphsim's
     * resolve step reports it as a bad configuration.
     */
    static std::optional<FileTraceSource> load(const std::string &path,
                                               std::string &error);

    /** As above, from a stream whose messages call it @p name. */
    static std::optional<FileTraceSource> load(std::istream &input,
                                               const std::string &name,
                                               std::string &error);

    /** Load from a stream (tests); fatal() on any load error. */
    FileTraceSource(std::istream &input, const std::string &name);

    TraceEntry next() override;

    /** Number of distinct events loaded. */
    std::size_t size() const { return entries_->size(); }

    /** The largest line address in the trace, and the first file line
     *  (1-based) that holds it. */
    struct Highest
    {
        LineAddr line = 0;
        std::size_t fileLine = 0;
    };
    Highest highest() const { return highest_; }

  private:
    FileTraceSource() = default;

    /** Load the events of @p input; false with @p error set on a
     *  malformed record or no events. */
    bool parse(std::istream &input, const std::string &name,
               std::string &error);

    /** The loaded events, shared by every copy. */
    std::shared_ptr<const std::vector<TraceEntry>> entries_;
    std::size_t position_ = 0;
    Highest highest_;
};

/** Write trace entries in the file format (round-trip with above). */
void writeTrace(std::ostream &output,
                const std::vector<TraceEntry> &entries);

/**
 * Capture @p count entries from @p source into a vector (trace
 * snapshotting: synthesize once, replay identically elsewhere).
 */
std::vector<TraceEntry> captureTrace(TraceSource &source,
                                     std::size_t count);

} // namespace morph

#endif // MORPH_WORKLOADS_TRACE_FILE_HH
