#include "workloads/trace_file.hh"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <fstream>
#include <string_view>

#include "common/log.hh"

namespace morph
{

namespace
{

/** Cut the next whitespace-separated field off the front of @p rest;
 *  empty when none is left. */
std::string_view
nextField(std::string_view &rest)
{
    const auto space = [](char c) {
        return std::isspace(static_cast<unsigned char>(c)) != 0;
    };
    const auto begin = std::find_if_not(rest.begin(), rest.end(), space);
    const auto end = std::find_if(begin, rest.end(), space);
    rest = std::string_view(end, rest.end());
    return std::string_view(begin, end);
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
    static const std::string expected =
        "expected '<gap> <R|W> <hex-line>'";
    std::vector<TraceEntry> entries;
    std::string line;
    std::size_t line_number = 0;
    while (std::getline(input, line)) {
        ++line_number;
        std::string_view rest = line;
        rest = rest.substr(0, rest.find('#'));
        // A malformed record's message: "trace NAME:LINE: WHAT".
        auto fail = [&](const std::string &what) {
            error = "trace " + name + ":" + std::to_string(line_number) +
                    ": " + what;
            return false;
        };

        const std::string_view gap_text = nextField(rest);
        if (gap_text.empty())
            continue; // blank or comment-only line
        // The gap parses strictly: a malformed first field (e.g. a
        // truncated "R 12" record) is a broken trace, not a comment.
        std::uint64_t gap = 0;
        const char *gap_end = gap_text.data() + gap_text.size();
        const std::from_chars_result gap_read =
            std::from_chars(gap_text.data(), gap_end, gap);
        // Digits past 64 bits saturate, then clamp below like any gap
        // wider than 32 bits; a sign or other junk stops the read.
        if (gap_read.ec == std::errc::result_out_of_range)
            gap = ~std::uint64_t(0);
        if (gap_read.ptr != gap_end)
            return fail("bad gap '" + std::string(gap_text) + "'; " +
                        expected);
        const std::string_view type = nextField(rest);
        const std::string_view addr_hex = nextField(rest);
        if (addr_hex.empty() || (type != "R" && type != "W"))
            return fail(expected);
        TraceEntry entry;
        if (gap > ~std::uint32_t(0))
            warn("trace %s:%zu: gap %llu exceeds 32 bits, clamped to "
                 "%u",
                 name.c_str(), line_number,
                 static_cast<unsigned long long>(gap), ~std::uint32_t(0));
        entry.gap = std::uint32_t(std::min<std::uint64_t>(gap, ~0u));
        entry.type = type == "W" ? AccessType::Write : AccessType::Read;
        // Hex digits with an optional 0x prefix and no sign.
        std::string_view digits = addr_hex;
        if (digits.starts_with("0x") || digits.starts_with("0X"))
            digits.remove_prefix(2);
        const char *addr_end = digits.data() + digits.size();
        const std::from_chars_result addr_read =
            std::from_chars(digits.data(), addr_end, entry.line, 16);
        if (addr_read.ec != std::errc() || addr_read.ptr != addr_end)
            return fail("bad line address '" + std::string(addr_hex) +
                        "'");
        if (const std::string_view extra = nextField(rest); !extra.empty())
            return fail("unexpected field '" + std::string(extra) +
                        "'; " + expected);
        if (entries.empty() || entry.line > highest_.line)
            highest_ = {entry.line, line_number};
        entries.push_back(entry);
    }
    if (entries.empty()) {
        error = "trace " + name + ": no events";
        return false;
    }
    entries_ = std::make_shared<const std::vector<TraceEntry>>(
        std::move(entries));
    return true;
}

TraceEntry
FileTraceSource::next()
{
    const std::vector<TraceEntry> &entries = *entries_;
    const TraceEntry entry = entries[position_];
    if (++position_ == entries.size())
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
