/**
 * @file
 * Strict parsing of numeric command-line values.
 *
 * std::strtoull alone accepts a sign ("-5" wraps to 2^64 - 5),
 * leading blanks and trailing junk ("abc" reads as 0), and a caller's
 * narrowing cast then wraps values wider than the field. simctl and
 * bench/fault_path parse every number through parseNum() instead, so
 * a bad value is rejected up front with an error naming its flag.
 */

#pragma once

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>

namespace deepum::support {

/**
 * Parse @p text, the value of @p prog's flag @p flag, as an unsigned
 * decimal integer in [@p lo, @p hi]. On anything else print
 * "<prog>: <flag> ..." naming the problem to stderr and return
 * nothing; the caller exits with status 2.
 */
inline std::optional<std::uint64_t>
parseNum(const char *prog, const char *flag, const std::string &text,
         std::uint64_t lo, std::uint64_t hi)
{
    const char *s = text.c_str();
    char *end = nullptr;
    errno = 0;
    const std::uint64_t v = std::strtoull(s, &end, 10);
    if (*s < '0' || *s > '9' || *end != '\0') {
        std::fprintf(stderr,
                     "%s: %s expects an unsigned integer, got '%s'\n",
                     prog, flag, s);
        return std::nullopt;
    }
    if (errno == ERANGE || v < lo || v > hi) {
        std::fprintf(stderr, "%s: %s must be in [%llu, %llu], got '%s'\n",
                     prog, flag, static_cast<unsigned long long>(lo),
                     static_cast<unsigned long long>(hi), s);
        return std::nullopt;
    }
    return v;
}

} // namespace deepum::support
