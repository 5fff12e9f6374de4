#include "common/check.hh"

#include <cstdio>
#include <cstdlib>

namespace morph
{
namespace check_detail
{
std::string
hexDump(const CachelineData &line)
{
    std::string out;
    out.reserve(4 * 56);
    char buf[8];
    for (std::size_t row = 0; row < lineBytes; row += 16) {
        std::snprintf(buf, sizeof(buf), "  %03zx:", row);
        out += buf;
        for (std::size_t col = 0; col < 16; ++col) {
            std::snprintf(buf, sizeof(buf), " %02x", line[row + col]);
            out += buf;
        }
        out += '\n';
    }
    return out;
}

void
failCheck(const char *file, int line, const char *expr,
          const std::string &detail)
{
    std::string report = "MORPH_CHECK failed: ";
    report += expr;
    report += "\n  at ";
    report += file;
    report += ':';
    report += std::to_string(line);
    report += '\n';
    if (!detail.empty()) {
        report += detail;
        report += '\n';
    }
    for (const LineContext *ctx = topContext; ctx != nullptr;
         ctx = ctx->previous()) {
        report += "  cacheline `";
        report += ctx->label();
        report += "`:\n";
        report += hexDump(ctx->line());
    }
    std::fputs(report.c_str(), stderr);
    std::fflush(stderr);
    std::abort();
}

} // namespace check_detail
} // namespace morph
