#include "common/parse.hh"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace morph
{

std::optional<std::uint64_t>
parseCount(const char *text)
{
    if (!std::isdigit(static_cast<unsigned char>(text[0])))
        return std::nullopt;
    errno = 0;
    char *end = nullptr;
    const unsigned long long v = std::strtoull(text, &end, 10);
    if (*end != '\0' || errno == ERANGE)
        return std::nullopt;
    return std::uint64_t(v);
}

std::optional<double>
parseNumber(const char *text)
{
    if (std::isspace(static_cast<unsigned char>(text[0])))
        return std::nullopt;
    char *end = nullptr;
    const double v = std::strtod(text, &end);
    if (end == text || *end != '\0' || !std::isfinite(v))
        return std::nullopt;
    return v;
}

std::optional<double>
parsePositive(const char *text)
{
    const std::optional<double> v = parseNumber(text);
    if (!v || !(*v > 0))
        return std::nullopt;
    return v;
}

std::optional<bool>
parseBool(const char *text)
{
    std::string v(text);
    for (char &c : v)
        c = char(std::tolower(static_cast<unsigned char>(c)));
    if (v == "1" || v == "true" || v == "yes" || v == "on")
        return true;
    if (v == "0" || v == "false" || v == "no" || v == "off")
        return false;
    return std::nullopt;
}

namespace
{

[[noreturn]] void
badOption(const char *tool, const std::string &flag, const std::string &what,
          const char *text)
{
    std::fprintf(stderr, "%s: option %s needs %s (got '%s')\n", tool,
                 flag.c_str(), what.c_str(), text);
    std::exit(2);
}

} // namespace

std::uint64_t
countOption(const char *tool, const std::string &flag, const char *text,
            std::uint64_t min, std::uint64_t max)
{
    const std::optional<std::uint64_t> v = parseCount(text);
    if (!v || *v < min || *v > max)
        badOption(tool, flag,
                  max == UINT64_MAX
                      ? "an integer >= " + std::to_string(min)
                      : "an integer in [" + std::to_string(min) + ", " +
                            std::to_string(max) + "]",
                  text);
    return *v;
}

double
numberOption(const char *tool, const std::string &flag, const char *text,
             bool positive)
{
    const std::optional<double> v = parseNumber(text);
    if (!v || *v < 0 || (positive && *v == 0))
        badOption(tool, flag, positive ? "a number > 0" : "a number >= 0",
                  text);
    return *v;
}

} // namespace morph
