/**
 * @file
 * Sim-time tracer: per-query trace spans recorded into a bounded ring
 * buffer and exportable as Chrome/Perfetto `trace_event` JSON.
 *
 * The paper's Figure 16 is a power/latency timeline of ten consecutive
 * queries; Table 4 decomposes a query into probe / fetch / exchange /
 * render components. With the device instrumented, those become spans
 * on a simulated-time track — cache probe, flash fetch, each radio
 * attempt (including fault-injected retries and backoff waits), render
 * — and the whole run loads into chrome://tracing or ui.perfetto.dev
 * instead of being squinted out of a printed table.
 *
 * Span invariant the integration tests pin down: the component spans
 * of one query (category "device") tile the query's latency exactly —
 * their durations sum to the reported end-to-end latency, with no gaps
 * and no double counting. Radio tail segments cost energy but not user
 * latency, so they are deliberately not spans.
 *
 * The device does not call the tracer directly: the tracer is the
 * Chrome view of the device's event stream (obs/events.h). It turns
 * each SpanRecord into a "device" span and each QueryRecord into the
 * query's "query" umbrella span, and ignores sync stages and drains.
 */

#ifndef PC_OBS_TRACE_H
#define PC_OBS_TRACE_H

#include <deque>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "util/types.h"

namespace pc::obs {

/** Device stream record: one component span of a query (duration > 0). */
struct SpanRecord
{
    const char *name; ///< Static component name ("probe", "backoff", ...).
    SimTime start;
    SimTime duration;
};

/** Device stream record: the end of one served query. */
struct QueryRecord
{
    const std::string *query; ///< Query text (owned by the universe).
    const char *path;         ///< Serve path display name.
    bool cacheHit;
    bool degraded;
    u32 attempts;
    SimTime start;
    SimTime latency;
    MicroJoules energy;
};

/** One completed span on a simulated-time track. */
struct TraceSpan
{
    std::string name;     ///< e.g. "radio-attempt", "render".
    std::string category; ///< "query" umbrella, "device" component.
    u32 track = 0;        ///< Track id (Chrome tid).
    SimTime start = 0;    ///< Simulated start time.
    SimTime duration = 0; ///< Simulated duration.
    /** Pre-rendered key/value annotations (Chrome "args"). */
    std::vector<std::pair<std::string, std::string>> args;
};

/**
 * Bounded ring-buffer span sink with Chrome trace export.
 *
 * Recording never allocates beyond the capacity: once full, the oldest
 * span is dropped and counted, so a long soak keeps the most recent
 * window — the behaviour a flight recorder needs.
 */
class Tracer
{
  public:
    /** Default span capacity. */
    static constexpr std::size_t kDefaultCapacity = 65536;

    explicit Tracer(std::size_t capacity = kDefaultCapacity);

    /**
     * Find-or-create a named track (Chrome thread). Track 0 exists
     * implicitly as "main" until relabelled.
     */
    u32 track(const std::string &label);

    /** Record one span (drops the oldest when at capacity). */
    void record(TraceSpan span);

    /** Convenience record without args. */
    void span(u32 track, std::string name, std::string category,
              SimTime start, SimTime duration);

    /** Retained spans, oldest first. */
    const std::deque<TraceSpan> &spans() const { return spans_; }

    /** Spans ever recorded (including dropped). */
    u64 recorded() const { return recorded_; }

    /** Spans evicted by the ring bound. */
    u64 dropped() const { return dropped_; }

    /** Ring capacity. */
    std::size_t capacity() const { return capacity_; }

    /** Drop all retained spans (tracks and counts are kept). */
    void clear() { spans_.clear(); }

    /** Stream view: a component span on `track` (category "device"). */
    void onEvent(u32 track, const SpanRecord &r);

    /**
     * Stream view: the query's umbrella span on `track` (category
     * "query", named by the query text, with the outcome as args).
     */
    void onEvent(u32 track, const QueryRecord &q);

    /**
     * Export as Chrome `trace_event` JSON ("X" complete events, one
     * metadata event naming each track). Timestamps are microseconds
     * with nanosecond decimals — SimTime is ns, Chrome wants us.
     */
    void writeChromeTrace(std::ostream &os) const;

    /** writeChromeTrace into a file. @return False on I/O failure. */
    bool writeChromeTraceFile(const std::string &path) const;

  private:
    std::size_t capacity_;
    std::deque<TraceSpan> spans_;
    std::vector<std::string> trackLabels_;
    u64 recorded_ = 0;
    u64 dropped_ = 0;
};

} // namespace pc::obs

#endif // PC_OBS_TRACE_H
