/**
 * @file
 * Minimal logging and error-termination helpers.
 *
 * Follows the gem5 convention: panic() for internal invariant
 * violations (simulator bugs — aborts), fatal() for user/configuration
 * errors (clean exit), warn() for status.
 */

#ifndef MORPH_COMMON_LOG_HH
#define MORPH_COMMON_LOG_HH

#include <cstdarg>
#include <string>

namespace morph
{

/** Print a warning message to stderr. */
void warn(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Abort: an internal invariant was violated (a library bug). */
[[noreturn]] void panic(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Exit(1): the simulation cannot continue due to a usage error. */
[[noreturn]] void fatal(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

} // namespace morph

#endif // MORPH_COMMON_LOG_HH
