/**
 * @file
 * gem5-flavoured status/error helpers: fatal() for user-caused errors,
 * panic() for internal invariant violations and warn() for things that
 * work, but not as well as they should.
 *
 * warn routes through one process-wide sink (default: stderr), so
 * tests can capture or silence it with setLogSink(). fatal/panic
 * bypass the sink — they are about to end the process and must always
 * reach stderr.
 */

#ifndef PC_UTIL_LOGGING_H
#define PC_UTIL_LOGGING_H

#include <functional>
#include <sstream>
#include <string>

namespace pc {

/** Receiver for all warn messages. */
using LogSink = std::function<void(const std::string &)>;

/**
 * Install a sink for warn output (tests capture/silence with this).
 * Passing nullptr restores the default stderr sink.
 * @return The previously installed sink (empty if it was the default).
 */
LogSink setLogSink(LogSink sink);

namespace detail {

[[noreturn]] void fatalImpl(const char *file, int line, const std::string &msg);
[[noreturn]] void panicImpl(const char *file, int line, const std::string &msg);
void warnImpl(const std::string &msg);

/** Fold a parameter pack into one string via ostringstream. */
template <typename... Args>
std::string
concat(Args &&...args)
{
    std::ostringstream oss;
    (oss << ... << args);
    return oss.str();
}

} // namespace detail

/**
 * Abort the process because the *user* asked for something unsupportable
 * (bad configuration, out-of-range parameter). Exits with status 1.
 */
#define pc_fatal(...) \
    ::pc::detail::fatalImpl(__FILE__, __LINE__, ::pc::detail::concat(__VA_ARGS__))

/**
 * Abort the process because an internal invariant broke (a bug in this
 * library, never the user's fault). Calls std::abort().
 */
#define pc_panic(...) \
    ::pc::detail::panicImpl(__FILE__, __LINE__, ::pc::detail::concat(__VA_ARGS__))

/** Panic unless a condition holds. */
#define pc_assert(cond, ...)                                               \
    do {                                                                   \
        if (!(cond)) {                                                     \
            ::pc::detail::panicImpl(__FILE__, __LINE__,                    \
                ::pc::detail::concat("assertion '" #cond "' failed: ",     \
                                     ##__VA_ARGS__));                      \
        }                                                                  \
    } while (0)

/** Non-fatal: something works but not as well as it should. */
#define pc_warn(...) ::pc::detail::warnImpl(::pc::detail::concat(__VA_ARGS__))

} // namespace pc

#endif // PC_UTIL_LOGGING_H
