/**
 * @file
 * Small string helpers: formatting of byte sizes / durations for reports,
 * splitting, and printf-style std::string formatting.
 */

#ifndef PC_UTIL_STRINGS_H
#define PC_UTIL_STRINGS_H

#include <string>
#include <string_view>
#include <vector>

#include "util/types.h"

namespace pc {

/** printf-style formatting into a std::string. */
std::string strformat(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** "1.5 MB"-style human-readable byte counts (binary units). */
std::string humanBytes(Bytes b);

/** "378 ms" / "1.25 s"-style durations from SimTime. */
std::string humanTime(SimTime t);

/** Split on a single character; keeps empty fields. */
std::vector<std::string> split(std::string_view s, char delim);

/** True if `needle` occurs inside `haystack` (ASCII, case-sensitive). */
bool contains(std::string_view haystack, std::string_view needle);

/** True if `s` starts with `prefix`. */
bool startsWith(std::string_view s, std::string_view prefix);

/** Strip a leading scheme and "www." from a URL, for substring matching. */
std::string_view stripUrlDecoration(std::string_view url);

} // namespace pc

#endif // PC_UTIL_STRINGS_H
