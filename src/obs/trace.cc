#include "obs/trace.h"

#include <cstdio>
#include <fstream>

#include "obs/json.h"
#include "util/logging.h"
#include "util/strings.h"

namespace pc::obs {

Tracer::Tracer(std::size_t capacity)
    : capacity_(capacity)
{
    pc_assert(capacity_ >= 1, "Tracer needs capacity >= 1");
    trackLabels_.push_back("main");
}

u32
Tracer::track(const std::string &label)
{
    for (std::size_t i = 0; i < trackLabels_.size(); ++i) {
        if (trackLabels_[i] == label)
            return u32(i);
    }
    trackLabels_.push_back(label);
    return u32(trackLabels_.size() - 1);
}

void
Tracer::record(TraceSpan span)
{
    ++recorded_;
    if (spans_.size() >= capacity_) {
        spans_.pop_front();
        ++dropped_;
    }
    spans_.push_back(std::move(span));
}

void
Tracer::span(u32 track, std::string name, std::string category,
             SimTime start, SimTime duration)
{
    TraceSpan s;
    s.name = std::move(name);
    s.category = std::move(category);
    s.track = track;
    s.start = start;
    s.duration = duration;
    record(std::move(s));
}

void
Tracer::onEvent(u32 track, const SpanRecord &r)
{
    span(track, r.name, "device", r.start, r.duration);
}

void
Tracer::onEvent(u32 track, const QueryRecord &q)
{
    if (q.latency <= 0)
        return;
    TraceSpan s;
    s.name = *q.query;
    s.category = "query";
    s.track = track;
    s.start = q.start;
    s.duration = q.latency;
    s.args = {{"path", q.path},
              {"cache_hit", q.cacheHit ? "true" : "false"},
              {"degraded", q.degraded ? "true" : "false"},
              {"attempts", strformat("%u", q.attempts)},
              {"latency_ms", strformat("%.3f", toMillis(q.latency))},
              {"energy_mj", strformat("%.3f", q.energy / 1000.0)}};
    record(std::move(s));
}

void
Tracer::writeChromeTrace(std::ostream &os) const
{
    JsonWriter w(os, /*pretty=*/true);
    w.beginObject();
    w.kv("displayTimeUnit", "ms");
    w.key("traceEvents");
    w.beginArray();
    for (std::size_t i = 0; i < trackLabels_.size(); ++i) {
        w.beginObject();
        w.kv("ph", "M");
        w.kv("pid", u64(1));
        w.kv("tid", u64(i));
        w.kv("name", "thread_name");
        w.key("args");
        w.beginObject();
        w.kv("name", trackLabels_[i]);
        w.endObject();
        w.endObject();
    }
    for (const auto &s : spans_) {
        w.beginObject();
        w.kv("ph", "X");
        w.kv("pid", u64(1));
        w.kv("tid", u64(s.track));
        w.kv("name", s.name);
        w.kv("cat", s.category);
        // SimTime is ns; Chrome ts/dur are us.
        w.kv("ts", double(s.start) / 1000.0);
        w.kv("dur", double(s.duration) / 1000.0);
        if (!s.args.empty()) {
            w.key("args");
            w.beginObject();
            for (const auto &[k, v] : s.args)
                w.kv(k, v);
            w.endObject();
        }
        w.endObject();
    }
    w.endArray();
    w.kv("droppedSpans", dropped_);
    w.endObject();
    os << '\n';
}

bool
Tracer::writeChromeTraceFile(const std::string &path) const
{
    std::ofstream f(path);
    if (!f)
        return false;
    writeChromeTrace(f);
    return bool(f);
}

} // namespace pc::obs
