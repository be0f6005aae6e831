/**
 * @file
 * gem5-style status and error reporting.
 *
 * panic()  - internal invariant broken (a simulator bug); aborts.
 * fatal()  - the user asked for something impossible; exits cleanly.
 * warn()   - something is suspicious but the run can continue.
 * inform() - plain status output.
 *
 * All functions take printf-style format strings. Verbosity of
 * inform()/warn() can be silenced for tests via setLogLevel().
 */

#pragma once

#include <cstdarg>

namespace deepum::sim {

/** Log verbosity levels, lowest value = most severe. */
enum class LogLevel {
    Silent = 0, ///< suppress warn() and inform()
    Warn = 1,   ///< show warn() only
    Info = 2,   ///< show warn() and inform()
};

/** Set the global log verbosity. @return the previous level. */
LogLevel setLogLevel(LogLevel level);

/** Print an informational message (printf-style). */
void inform(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Print a warning message (printf-style). */
void warn(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/**
 * Report an unrecoverable user-level error and exit(1).
 * Use for bad configuration or arguments, not simulator bugs.
 */
[[noreturn]] void fatal(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/**
 * Report a broken internal invariant and abort().
 * Use for conditions that can never happen unless the simulator
 * itself is buggy.
 */
[[noreturn]] void panic(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Report which assertion failed, then panic with the details. */
[[noreturn]] void assertFailed(const char *cond, const char *fmt, ...)
    __attribute__((format(printf, 2, 3)));

/** panic() unless the condition holds; extra args are printf-style. */
#define DEEPUM_ASSERT(cond, ...)                                        \
    do {                                                                \
        if (!(cond))                                                    \
            ::deepum::sim::assertFailed(#cond, __VA_ARGS__);            \
    } while (0)

} // namespace deepum::sim
