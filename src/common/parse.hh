/**
 * @file
 * Strict value parsers shared by every command-line flag, INI value
 * and environment variable: the whole text must be the value, with no
 * sign a count cannot have, no leading space and no trailing junk.
 * atoi/atof would read "5abc" as 5 and "abc" as 0, and strtoull
 * wraps "-5" to a huge count; these return nullopt instead.
 */

#ifndef MORPH_COMMON_PARSE_HH
#define MORPH_COMMON_PARSE_HH

#include <cstdint>
#include <optional>
#include <string>

namespace morph
{

/** All of @p text as a decimal count: digits only, with no sign,
 *  space, exponent or trailing junk, and no overflow. */
std::optional<std::uint64_t> parseCount(const char *text);

/** All of @p text as a finite number (any sign). */
std::optional<double> parseNumber(const char *text);

/** All of @p text as a positive finite number. */
std::optional<double> parsePositive(const char *text);

/** All of @p text as a boolean, case-insensitively: 1/true/yes/on or
 *  0/false/no/off. */
std::optional<bool> parseBool(const char *text);

/** @p text as the value of numeric option @p flag of command-line
 *  tool @p tool: a count in [@p min, @p max]. Anything else prints
 *  "<tool>: option <flag> needs ... (got '<text>')" and exits 2, the
 *  tools' bad-usage code. */
std::uint64_t countOption(const char *tool, const std::string &flag,
                          const char *text, std::uint64_t min = 0,
                          std::uint64_t max = UINT64_MAX);

/** @p text as the value of numeric option @p flag: a finite number
 *  >= 0, or > 0 when @p positive. Otherwise as countOption. */
double numberOption(const char *tool, const std::string &flag,
                    const char *text, bool positive = false);

} // namespace morph

#endif // MORPH_COMMON_PARSE_HH
