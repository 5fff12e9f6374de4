#include "common/trace_log.hh"

#include <cinttypes>
#include <fstream>

#include "common/json.hh"

namespace morph
{

bool
TraceLog::roomFor()
{
    if (events_.size() < maxEvents_)
        return true;
    ++dropped_;
    return false;
}

void
TraceLog::complete(const char *name, const char *cat,
                   std::uint32_t tid, std::uint64_t ts,
                   std::uint64_t dur, std::uint64_t arg_line)
{
    if (!roomFor())
        return;
    events_.push_back({name, cat, ts, dur, arg_line, tid, 'X'});
}

void
TraceLog::instant(const char *name, const char *cat, std::uint32_t tid,
                  std::uint64_t ts)
{
    if (!roomFor())
        return;
    events_.push_back({name, cat, ts, 0, noLine, tid, 'i'});
}

void
TraceLog::nameTrack(std::uint32_t tid, const std::string &name)
{
    for (auto &kv : trackNames_) {
        if (kv.first == tid) {
            kv.second = name;
            return;
        }
    }
    trackNames_.emplace_back(tid, name);
}

std::size_t
TraceLog::size() const
{
    return events_.size() + trackNames_.size();
}

void
TraceLog::write(std::ostream &os) const
{
    // "morph" is a foreign top-level key; Chrome/Perfetto ignore keys
    // they don't know, and it makes event loss visible in the
    // document itself (dropped_events > 0 means the cap was hit and
    // the tail of the run is missing from the timeline).
    os << "{\"displayTimeUnit\": \"ns\", \"morph\": {\"max_events\": "
       << maxEvents_ << ", \"events\": " << events_.size()
       << ", \"dropped_events\": " << dropped_
       << "}, \"traceEvents\": [";
    bool first = true;
    for (const auto &kv : trackNames_) {
        if (!first)
            os << ",";
        first = false;
        os << "\n{\"name\": \"thread_name\", \"ph\": \"M\", "
              "\"pid\": 1, \"tid\": "
           << kv.first << ", \"args\": {\"name\": \""
           << jsonEscape(kv.second) << "\"}}";
    }
    char buf[256];
    for (const Event &e : events_) {
        if (!first)
            os << ",";
        first = false;
        // Event names and categories pass through jsonEscape like
        // every other string field: a stray control byte or quote in
        // an instrumentation site must not produce invalid JSON.
        os << "\n{\"name\": \"" << jsonEscape(e.name)
           << "\", \"cat\": \"" << jsonEscape(e.cat) << "\", ";
        if (e.phase == 'X') {
            std::snprintf(buf, sizeof buf,
                          "\"ph\": \"X\", \"pid\": 1, \"tid\": %u, "
                          "\"ts\": %" PRIu64 ", \"dur\": %" PRIu64,
                          e.tid, e.ts, e.dur);
            os << buf;
            if (e.line != noLine) {
                std::snprintf(buf, sizeof buf,
                              ", \"args\": {\"line\": \"0x%" PRIx64
                              "\"}",
                              e.line);
                os << buf;
            }
            os << "}";
        } else {
            std::snprintf(buf, sizeof buf,
                          "\"ph\": \"i\", \"s\": \"t\", \"pid\": 1, "
                          "\"tid\": %u, \"ts\": %" PRIu64 "}",
                          e.tid, e.ts);
            os << buf;
        }
    }
    os << "\n]}\n";
}

bool
TraceLog::writeTo(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    write(out);
    out.flush();
    return bool(out);
}

} // namespace morph
