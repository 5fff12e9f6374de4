#include "common/log.hh"

#include <cstdio>
#include <cstdlib>

namespace morph
{

namespace
{

void
vlog(const char *prefix, const char *fmt, std::va_list args)
{
    std::fprintf(stderr, "%s: ", prefix);
    std::vfprintf(stderr, fmt, args);
    std::fputc('\n', stderr);
}

} // namespace

void
warn(const char *fmt, ...)
{
    std::va_list args;
    va_start(args, fmt);
    vlog("warn", fmt, args);
    va_end(args);
}

void
panic(const char *fmt, ...)
{
    std::va_list args;
    va_start(args, fmt);
    vlog("panic", fmt, args);
    va_end(args);
    std::abort();
}

void
fatal(const char *fmt, ...)
{
    std::va_list args;
    va_start(args, fmt);
    vlog("fatal", fmt, args);
    va_end(args);
    std::exit(1);
}

} // namespace morph
