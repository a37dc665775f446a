#include "util/logging.h"

#include <cstdio>
#include <cstdlib>

namespace pc {

namespace {

LogSink &
sinkSlot()
{
    static LogSink sink; // empty = default stderr sink
    return sink;
}

} // namespace

LogSink
setLogSink(LogSink sink)
{
    LogSink prev = std::move(sinkSlot());
    sinkSlot() = std::move(sink);
    return prev;
}

namespace detail {

void
fatalImpl(const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "fatal: %s (%s:%d)\n", msg.c_str(), file, line);
    std::exit(1);
}

void
panicImpl(const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "panic: %s (%s:%d)\n", msg.c_str(), file, line);
    std::abort();
}

void
warnImpl(const std::string &msg)
{
    const LogSink &sink = sinkSlot();
    if (sink)
        sink(msg);
    else
        std::fprintf(stderr, "warn: %s\n", msg.c_str());
}

} // namespace detail
} // namespace pc
