#include "sim/logging.hh"

#include <cstdio>
#include <cstdlib>

namespace deepum::sim {

namespace {

LogLevel g_level = LogLevel::Info;

void
vreport(const char *tag, const char *fmt, va_list ap)
{
    std::fprintf(stderr, "%s: ", tag);
    std::vfprintf(stderr, fmt, ap);
    std::fputc('\n', stderr);
}

} // namespace

LogLevel
setLogLevel(LogLevel level)
{
    LogLevel prev = g_level;
    g_level = level;
    return prev;
}

void
inform(const char *fmt, ...)
{
    if (g_level < LogLevel::Info)
        return;
    va_list ap;
    va_start(ap, fmt);
    vreport("info", fmt, ap);
    va_end(ap);
}

void
warn(const char *fmt, ...)
{
    if (g_level < LogLevel::Warn)
        return;
    va_list ap;
    va_start(ap, fmt);
    vreport("warn", fmt, ap);
    va_end(ap);
}

void
fatal(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    vreport("fatal", fmt, ap);
    va_end(ap);
    std::exit(1);
}

void
panic(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    vreport("panic", fmt, ap);
    va_end(ap);
    std::abort();
}

void
assertFailed(const char *cond, const char *fmt, ...)
{
    std::fprintf(stderr, "panic: assertion failed: %s\n", cond);
    va_list ap;
    va_start(ap, fmt);
    vreport("panic", fmt, ap);
    va_end(ap);
    std::abort();
}

} // namespace deepum::sim
