/**
 * @file
 * Unit tests for the observability layer: JSON writer, metrics
 * registry (snapshot/delta/merge), tracer ring buffer + Chrome export,
 * and the bench reporter.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/trace.h"

namespace pc::obs {
namespace {

/**
 * Minimal structural JSON check: balanced braces/brackets outside
 * strings, terminated strings, valid escapes. Enough to catch the
 * classic emitter bugs (trailing comma handling is the writer's own
 * unit test; python -m json.tool runs in CI for full validation).
 */
bool
structurallyValidJson(const std::string &s)
{
    std::string stack;
    bool inString = false;
    bool escaped = false;
    for (char c : s) {
        if (inString) {
            if (escaped)
                escaped = false;
            else if (c == '\\')
                escaped = true;
            else if (c == '"')
                inString = false;
            continue;
        }
        switch (c) {
          case '"':
            inString = true;
            break;
          case '{':
          case '[':
            stack.push_back(c);
            break;
          case '}':
            if (stack.empty() || stack.back() != '{')
                return false;
            stack.pop_back();
            break;
          case ']':
            if (stack.empty() || stack.back() != '[')
                return false;
            stack.pop_back();
            break;
          default:
            break;
        }
    }
    return !inString && stack.empty();
}

TEST(JsonWriter, ObjectsArraysAndTypes)
{
    std::ostringstream os;
    JsonWriter w(os);
    w.beginObject();
    w.kv("s", "hi");
    w.kv("u", u64(7));
    w.kv("i", i64(-3));
    w.kv("b", true);
    w.kv("d", 2.5);
    w.key("n");
    w.null();
    w.key("a");
    w.beginArray();
    w.value(u64(1));
    w.value(u64(2));
    w.endArray();
    w.endObject();
    EXPECT_EQ(os.str(),
              "{\"s\":\"hi\",\"u\":7,\"i\":-3,\"b\":true,\"d\":2.5,"
              "\"n\":null,\"a\":[1,2]}");
}

TEST(JsonWriter, EscapesStrings)
{
    EXPECT_EQ(JsonWriter::escape("a\"b\\c\n\t"), "a\\\"b\\\\c\\n\\t");
    std::ostringstream os;
    JsonWriter w(os);
    w.beginObject();
    w.kv("k\"ey", "v\nal");
    w.endObject();
    EXPECT_EQ(os.str(), "{\"k\\\"ey\":\"v\\nal\"}");
    EXPECT_TRUE(structurallyValidJson(os.str()));
}

TEST(JsonWriter, NonFiniteDoublesBecomeNull)
{
    std::ostringstream os;
    JsonWriter w(os);
    w.beginArray();
    w.value(0.0 / 0.0);        // nan
    w.value(1.0 / 0.0);        // inf
    w.endArray();
    EXPECT_EQ(os.str(), "[null,null]");
}

TEST(MetricRegistry, HandlesAreStableAndShared)
{
    MetricRegistry reg;
    Counter &a = reg.counter("x.hits");
    Counter &b = reg.counter("x.hits");
    EXPECT_EQ(&a, &b) << "same name returns the same handle";
    a.bump();
    b.bump(4);
    EXPECT_EQ(reg.counter("x.hits").value(), 5u);
    EXPECT_EQ(a.name(), "x.hits");

    EXPECT_EQ(reg.findCounter("x.hits"), &a);
    EXPECT_EQ(reg.findCounter("absent"), nullptr);
    EXPECT_EQ(reg.findGauge("x.hits"), nullptr);
}

TEST(MetricRegistry, SnapshotIsNameSorted)
{
    MetricRegistry reg;
    reg.counter("zeta").bump(1);
    reg.counter("alpha").bump(2);
    reg.counter("mid").bump(3);
    reg.gauge("g2").set(2.0);
    reg.gauge("g1").set(1.0);
    reg.histogram("h").observe(5.0);

    const auto snap = reg.snapshot();
    ASSERT_EQ(snap.counters.size(), 3u);
    EXPECT_EQ(snap.counters[0].first, "alpha");
    EXPECT_EQ(snap.counters[1].first, "mid");
    EXPECT_EQ(snap.counters[2].first, "zeta");
    ASSERT_EQ(snap.gauges.size(), 2u);
    EXPECT_EQ(snap.gauges[0].first, "g1");
    ASSERT_EQ(snap.histograms.size(), 1u);
    EXPECT_EQ(snap.histograms[0].name, "h");
    EXPECT_EQ(snap.histograms[0].count, 1u);
    EXPECT_DOUBLE_EQ(snap.histograms[0].p50, 5.0);

    EXPECT_EQ(snap.counterValue("mid"), 3u);
    EXPECT_EQ(snap.counterValue("absent"), 0u);
}

TEST(MetricRegistry, MergePreservesExactQuantiles)
{
    MetricRegistry a, b;
    a.counter("c").bump(3);
    b.counter("c").bump(4);
    b.counter("only_b").bump(1);
    a.gauge("g").set(1.0);
    b.gauge("g").set(9.0);
    for (double x : {1.0, 2.0, 3.0})
        a.histogram("lat").observe(x);
    for (double x : {4.0, 5.0})
        b.histogram("lat").observe(x);

    a.mergeFrom(b);
    EXPECT_EQ(a.counter("c").value(), 7u);
    EXPECT_EQ(a.counter("only_b").value(), 1u);
    EXPECT_DOUBLE_EQ(a.gauge("g").value(), 9.0) << "gauges overwrite";

    const Histogram &h = a.histogram("lat");
    EXPECT_EQ(h.count(), 5u);
    EXPECT_DOUBLE_EQ(h.mean(), 3.0);
    EXPECT_DOUBLE_EQ(h.quantile(0.5), 3.0) << "exact sample-union median";
    EXPECT_DOUBLE_EQ(h.min(), 1.0);
    EXPECT_DOUBLE_EQ(h.max(), 5.0);
}

TEST(Histogram, MemoryStaysBoundedOnLongStreams)
{
    // The unbounded per-sample vector is gone: a 200k-observation
    // histogram retains at most the sketch's documented cap, and its
    // quantiles stay within the sketch's rank-error bound.
    MetricRegistry reg;
    Histogram &h = reg.histogram("lat");
    std::vector<double> sample;
    sample.reserve(200'000);
    for (int i = 0; i < 200'000; ++i) {
        const double x = double((i * 7919) % 100'000);
        h.observe(x);
        sample.push_back(x);
    }
    EXPECT_FALSE(h.exact());
    EXPECT_LE(h.retained(), h.sketch().maxRetained());
    EXPECT_EQ(h.count(), 200'000u);

    std::sort(sample.begin(), sample.end());
    for (double q : {0.25, 0.50, 0.90, 0.99}) {
        const double v = h.quantile(q);
        const auto it =
            std::upper_bound(sample.begin(), sample.end(), v);
        const double rank =
            double(it - sample.begin()) / double(sample.size());
        EXPECT_NEAR(rank, q, h.sketch().epsilon()) << "q=" << q;
    }
}

TEST(Histogram, ExactModeStoresFullSample)
{
    MetricRegistry reg;
    Histogram &h = reg.exactHistogram("lat");
    for (int i = 0; i < 1000; ++i)
        h.observe(double(i));
    EXPECT_TRUE(h.exact());
    EXPECT_EQ(h.retained(), 1000u) << "exact mode keeps every sample";
    EXPECT_DOUBLE_EQ(h.quantile(0.5), h.cdf().quantile(0.5));
    EXPECT_EQ(&reg.exactHistogram("lat"), &h)
        << "same name, same mode returns the same handle";
}

TEST(Histogram, MergeExactSourceIntoSketchTarget)
{
    // A sketch-mode target accepts an exact-mode source by re-adding
    // its stored samples — the registry merge relies on this when
    // shards were created with different modes.
    MetricRegistry sk, ex;
    for (double x : {1.0, 2.0, 3.0})
        sk.histogram("h").observe(x);
    for (double x : {4.0, 5.0})
        ex.exactHistogram("h").observe(x);

    sk.mergeFrom(ex);
    const Histogram &h = sk.histogram("h");
    EXPECT_EQ(h.count(), 5u);
    EXPECT_DOUBLE_EQ(h.mean(), 3.0);
    EXPECT_DOUBLE_EQ(h.quantile(0.5), 3.0)
        << "still exact: 5 < k items means no compaction yet";
    EXPECT_FALSE(h.exact()) << "target keeps its own mode";
}

TEST(Histogram, RegistryMergeCreatesAbsentInSourceMode)
{
    MetricRegistry src, dst;
    src.histogram("sketchy").observe(1.0);
    src.exactHistogram("precise").observe(2.0);
    dst.mergeFrom(src);
    EXPECT_FALSE(dst.histogram("sketchy").exact());
    EXPECT_TRUE(dst.exactHistogram("precise").exact());
    EXPECT_EQ(dst.histogram("sketchy").count(), 1u);
    EXPECT_EQ(dst.exactHistogram("precise").count(), 1u);
}

TEST(MetricsSnapshot, CountersInNameOrderAndJson)
{
    MetricRegistry reg;
    reg.counter("b").bump(2);
    reg.counter("a").bump(1);
    reg.histogram("h").observe(1.0);
    const auto snap = reg.snapshot();

    ASSERT_EQ(snap.counters.size(), 2u);
    EXPECT_EQ(snap.counters[0].first, "a") << "snapshot (name) order";
    EXPECT_EQ(snap.counterValue("b"), 2u);

    std::ostringstream os;
    snap.writeJson(os);
    EXPECT_TRUE(structurallyValidJson(os.str())) << os.str();
    EXPECT_NE(os.str().find("\"a\""), std::string::npos);
}

TEST(Tracer, RingBufferDropsOldest)
{
    Tracer tr(3);
    for (int i = 0; i < 5; ++i)
        tr.span(0, "s" + std::to_string(i), "device", i * 100, 50);
    EXPECT_EQ(tr.recorded(), 5u);
    EXPECT_EQ(tr.dropped(), 2u);
    ASSERT_EQ(tr.spans().size(), 3u);
    EXPECT_EQ(tr.spans().front().name, "s2") << "oldest evicted first";
    EXPECT_EQ(tr.spans().back().name, "s4");
    EXPECT_EQ(tr.capacity(), 3u);
}

TEST(Tracer, TracksFindOrCreate)
{
    Tracer tr;
    EXPECT_EQ(tr.track("main"), 0u) << "track 0 pre-exists as 'main'";
    const u32 dev = tr.track("device");
    EXPECT_EQ(dev, 1u);
    EXPECT_EQ(tr.track("device"), dev);
    EXPECT_EQ(tr.track("radio"), 2u);
}

TEST(Tracer, ChromeTraceExportShape)
{
    Tracer tr;
    const u32 dev = tr.track("device");
    TraceSpan s;
    s.name = "radio \"retry\"";
    s.category = "device";
    s.track = dev;
    s.start = 1500;   // 1.5 us
    s.duration = 500; // 0.5 us
    s.args.emplace_back("attempt", "2");
    tr.record(std::move(s));

    std::ostringstream os;
    tr.writeChromeTrace(os);
    const std::string out = os.str();
    EXPECT_TRUE(structurallyValidJson(out)) << out;
    EXPECT_NE(out.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(out.find("\"thread_name\""), std::string::npos);
    EXPECT_NE(out.find("\"device\""), std::string::npos);
    EXPECT_NE(out.find("\"ts\": 1.5"), std::string::npos)
        << "ns -> us conversion";
    EXPECT_NE(out.find("\"dur\": 0.5"), std::string::npos);
    EXPECT_NE(out.find("\"attempt\": \"2\""), std::string::npos);
    EXPECT_NE(out.find("radio \\\"retry\\\""), std::string::npos);
}

TEST(BenchReport, JsonAndCsvOutput)
{
    MetricRegistry reg;
    for (double x : {10.0, 20.0, 30.0})
        reg.histogram("lat_ms").observe(x);
    reg.counter("served").bump(3);

    BenchReport report("unittest", "Unit, test \"report\"");
    report.note("world", "small");
    report.metric("speedup", 16.25, "x");
    report.quantiles(reg.histogram("lat_ms"), "ms");
    report.attachSnapshot(reg.snapshot());

    std::ostringstream js;
    report.writeJson(js);
    EXPECT_TRUE(structurallyValidJson(js.str())) << js.str();
    EXPECT_NE(js.str().find("\"bench\": \"unittest\""),
              std::string::npos);
    EXPECT_NE(js.str().find("\"speedup\""), std::string::npos);
    EXPECT_NE(js.str().find("\"lat_ms\""), std::string::npos);
    EXPECT_NE(js.str().find("\"registry\""), std::string::npos);

    std::ostringstream cs;
    report.writeCsv(cs);
    const std::string csv = cs.str();
    EXPECT_NE(csv.find("kind,name,value,unit\n"), std::string::npos);
    EXPECT_NE(csv.find("metric,speedup,16.25,x\n"), std::string::npos);
    EXPECT_NE(csv.find("histogram,lat_ms.p50,20,ms\n"),
              std::string::npos);
}

TEST(BenchReport, WriteFilesRoundTrip)
{
    BenchReport report("obs_unittest", "file round trip");
    report.metric("answer", 42.0);

    const std::string dir = std::string(PC_TEST_OUT_DIR) + "/obs";
    const auto paths = report.writeFiles(dir);
    ASSERT_EQ(paths.size(), 2u);
    EXPECT_EQ(paths[0], dir + "/BENCH_obs_unittest.json");
    EXPECT_EQ(paths[1], dir + "/BENCH_obs_unittest.csv");

    std::ifstream f(paths[0]);
    ASSERT_TRUE(f.good());
    std::stringstream buf;
    buf << f.rdbuf();
    EXPECT_TRUE(structurallyValidJson(buf.str()));
    EXPECT_NE(buf.str().find("\"answer\""), std::string::npos);

    for (const auto &p : paths)
        std::remove(p.c_str());
}

TEST(BenchReport, DeterministicOutput)
{
    // The determinism contract: serializing the same report twice is
    // byte-identical (no timestamps, stable float formatting).
    MetricRegistry reg;
    reg.histogram("h").observe(1.0 / 3.0);
    BenchReport report("det", "determinism");
    report.metric("third", 1.0 / 3.0);
    report.quantiles(reg.histogram("h"));

    std::ostringstream a, b;
    report.writeJson(a);
    report.writeJson(b);
    EXPECT_EQ(a.str(), b.str());

    std::ostringstream c, d;
    report.writeCsv(c);
    report.writeCsv(d);
    EXPECT_EQ(c.str(), d.str());
}

} // namespace
} // namespace pc::obs
