/**
 * @file
 * Chrome trace export escaping: span names, categories and args
 * containing quotes, backslashes and control characters must survive
 * the JSON writer and parse back verbatim through the obs JSON parser
 * (the same shape chrome://tracing consumes).
 */

#include <gtest/gtest.h>

#include <sstream>

#include "obs/jsonparse.h"
#include "obs/trace.h"

namespace pc::obs {
namespace {

/** Export `tracer` and hand back the parsed traceEvents array. */
const JsonValue *
exportAndParse(const Tracer &tracer, JsonValue &doc)
{
    std::ostringstream os;
    tracer.writeChromeTrace(os);
    std::string err;
    if (!parseJson(os.str(), doc, &err)) {
        ADD_FAILURE() << "export did not parse: " << err;
        return nullptr;
    }
    return doc.find("traceEvents");
}

/** The first "X" event named via args-free lookup by category. */
const JsonValue *
findSpan(const JsonValue &events, const std::string &cat)
{
    for (const JsonValue &ev : events.array())
        if (ev.strOr("ph", "") == "X" && ev.strOr("cat", "") == cat)
            return &ev;
    return nullptr;
}

TEST(TraceExport, HostileStringsRoundTrip)
{
    Tracer tracer;
    TraceSpan sp;
    sp.name = "he said \"quote\" and used a \\backslash\\";
    sp.category = "hostile";
    sp.start = 1000;
    sp.duration = 500;
    sp.args.emplace_back("newline\nkey", "tab\tvalue");
    sp.args.emplace_back("control", std::string("\x01\x02\x1f"));
    sp.args.emplace_back("empty", "");
    tracer.record(sp);

    JsonValue doc;
    const JsonValue *events = exportAndParse(tracer, doc);
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->isArray());

    const JsonValue *ev = findSpan(*events, "hostile");
    ASSERT_NE(ev, nullptr);
    EXPECT_EQ(ev->strOr("name", ""),
              "he said \"quote\" and used a \\backslash\\");
    const JsonValue *args = ev->find("args");
    ASSERT_NE(args, nullptr);
    EXPECT_EQ(args->strOr("newline\nkey", ""), "tab\tvalue");
    EXPECT_EQ(args->strOr("control", ""), std::string("\x01\x02\x1f"));
    const JsonValue *empty = args->find("empty");
    ASSERT_NE(empty, nullptr);
    EXPECT_TRUE(empty->isString());
    EXPECT_EQ(empty->str(), "");
}

TEST(TraceExport, TrackLabelsWithEscapesRoundTrip)
{
    Tracer tracer;
    const u32 tid = tracer.track("track \"zero\"\n\\one");
    tracer.span(tid, "plain", "c", 0, 1);

    JsonValue doc;
    const JsonValue *events = exportAndParse(tracer, doc);
    ASSERT_NE(events, nullptr);

    bool found = false;
    for (const JsonValue &ev : events->array()) {
        if (ev.strOr("ph", "") != "M")
            continue;
        const JsonValue *args = ev.find("args");
        if (args != nullptr &&
            args->strOr("name", "") == "track \"zero\"\n\\one")
            found = true;
    }
    EXPECT_TRUE(found) << "escaped track label did not survive";
}

TEST(TraceExport, TimesAndDropCountSurvive)
{
    Tracer tracer(/*capacity=*/2);
    tracer.span(0, "a", "c", 1500, 250); // will be evicted
    tracer.span(0, "b", "c", 3000, 750);
    tracer.span(0, "c", "c", 5000, 1250);
    ASSERT_EQ(tracer.dropped(), 1u);

    JsonValue doc;
    const JsonValue *events = exportAndParse(tracer, doc);
    ASSERT_NE(events, nullptr);
    EXPECT_DOUBLE_EQ(doc.numberOr("droppedSpans", -1), 1.0);

    std::size_t xEvents = 0;
    for (const JsonValue &ev : events->array()) {
        if (ev.strOr("ph", "") != "X")
            continue;
        ++xEvents;
        if (ev.strOr("name", "") == "b") {
            // ns -> us with decimals.
            EXPECT_DOUBLE_EQ(ev.numberOr("ts", 0), 3.0);
            EXPECT_DOUBLE_EQ(ev.numberOr("dur", 0), 0.75);
        }
    }
    EXPECT_EQ(xEvents, 2u) << "ring keeps the newest spans";
}

} // namespace
} // namespace pc::obs
