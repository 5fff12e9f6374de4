#include "workloads/trace_file.hh"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "common/log.hh"

namespace morph
{

namespace
{

/** The message of a malformed record: "trace NAME:LINE: WHAT". */
std::string
recordError(const std::string &name, std::size_t line_number,
            const std::string &what)
{
    return "trace " + name + ":" + std::to_string(line_number) + ": " +
           what;
}

} // namespace

std::optional<FileTraceSource>
FileTraceSource::load(const std::string &path, std::string &error)
{
    std::ifstream input(path);
    if (!input) {
        error = "trace: cannot open " + path;
        return std::nullopt;
    }
    return load(input, path, error);
}

std::optional<FileTraceSource>
FileTraceSource::load(std::istream &input, const std::string &name,
                      std::string &error)
{
    FileTraceSource trace;
    if (!trace.parse(input, name, error))
        return std::nullopt;
    return trace;
}

FileTraceSource::FileTraceSource(std::istream &input,
                                 const std::string &name)
{
    std::string error;
    if (!parse(input, name, error))
        fatal("%s", error.c_str());
}

bool
FileTraceSource::parse(std::istream &input, const std::string &name,
                       std::string &error)
{
    std::string line;
    std::size_t line_number = 0;
    while (std::getline(input, line)) {
        ++line_number;
        const std::size_t hash = line.find('#');
        if (hash != std::string::npos)
            line.erase(hash);

        std::istringstream fields(line);
        std::string gap_text;
        std::string type;
        std::string addr_hex;
        if (!(fields >> gap_text))
            continue; // blank or comment-only line
        // The gap parses strictly: a malformed first field (e.g. a
        // truncated "R 12" record) is a broken trace, not a comment.
        char *gap_end = nullptr;
        const std::uint64_t gap =
            std::strtoull(gap_text.c_str(), &gap_end, 10);
        if (gap_text[0] == '-' || gap_end == gap_text.c_str() ||
            *gap_end != '\0') {
            error = recordError(name, line_number,
                                "bad gap '" + gap_text +
                                    "'; expected '<gap> <R|W> <hex-line>'");
            return false;
        }
        if (!(fields >> type >> addr_hex) ||
            (type != "R" && type != "W")) {
            error = recordError(name, line_number,
                                "expected '<gap> <R|W> <hex-line>'");
            return false;
        }
        TraceEntry entry;
        if (gap > ~std::uint32_t(0))
            warn("trace %s:%zu: gap %llu exceeds 32 bits, clamped to "
                 "%u",
                 name.c_str(), line_number,
                 static_cast<unsigned long long>(gap), ~std::uint32_t(0));
        entry.gap = std::uint32_t(std::min<std::uint64_t>(gap, ~0u));
        entry.type = type == "W" ? AccessType::Write : AccessType::Read;
        char *end = nullptr;
        entry.line = std::strtoull(addr_hex.c_str(), &end, 16);
        if (end == addr_hex.c_str() || *end != '\0') {
            error = recordError(name, line_number,
                                "bad line address '" + addr_hex + "'");
            return false;
        }
        if (entries_.empty() || entry.line > highest_.line)
            highest_ = {entry.line, line_number};
        entries_.push_back(entry);
    }
    if (entries_.empty()) {
        error = "trace " + name + ": no events";
        return false;
    }
    return true;
}

TraceEntry
FileTraceSource::next()
{
    const TraceEntry entry = entries_[position_];
    if (++position_ == entries_.size())
        position_ = 0;
    return entry;
}

void
writeTrace(std::ostream &output, const std::vector<TraceEntry> &entries)
{
    for (const TraceEntry &entry : entries) {
        output << entry.gap << ' '
               << (entry.type == AccessType::Write ? 'W' : 'R') << ' '
               << std::hex << entry.line << std::dec << '\n';
    }
}

std::vector<TraceEntry>
captureTrace(TraceSource &source, std::size_t count)
{
    std::vector<TraceEntry> entries;
    entries.reserve(count);
    for (std::size_t i = 0; i < count; ++i)
        entries.push_back(source.next());
    return entries;
}

} // namespace morph
