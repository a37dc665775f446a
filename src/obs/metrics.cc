#include "obs/metrics.h"

#include <algorithm>

#include "obs/json.h"
#include "util/logging.h"

namespace pc::obs {

double
Histogram::quantile(double q) const
{
    if (exact_)
        return cdf_.size() == 0 ? 0.0 : cdf_.quantile(q);
    return sketch_.quantile(q);
}

void
Histogram::quantiles(std::span<const double> qs, std::span<double> out) const
{
    if (!exact_) {
        sketch_.quantiles(qs, out);
        return;
    }
    pc_assert(out.size() == qs.size(),
              "Histogram::quantiles: output size mismatch");
    for (std::size_t i = 0; i < qs.size(); ++i)
        out[i] = quantile(qs[i]);
}

const QuantileSketch &
Histogram::sketch() const
{
    pc_assert(!exact_, "histogram '", name_,
              "' is exact-mode; it has no sketch");
    return sketch_;
}

const EmpiricalCdf &
Histogram::cdf() const
{
    pc_assert(exact_, "histogram '", name_,
              "' is sketch-mode; the full sample is not stored");
    return cdf_;
}

void
Histogram::mergeFrom(const Histogram &other)
{
    stat_.merge(other.stat_);
    if (exact_) {
        if (!other.exact_)
            pc_fatal("cannot merge sketch-mode histogram '",
                     other.name_, "' into exact-mode '", name_,
                     "': the source samples no longer exist");
        cdf_.add(other.cdf_.sorted());
        return;
    }
    if (other.exact_) {
        for (double x : other.cdf_.sorted())
            sketch_.add(x);
    } else {
        sketch_.mergeFrom(other.sketch_);
    }
}

u64
MetricsSnapshot::counterValue(const std::string &name) const
{
    for (const auto &[n, v] : counters) {
        if (n == name)
            return v;
    }
    return 0;
}

MetricsSample
MetricsSample::fromSnapshot(const MetricsSnapshot &snap)
{
    auto layout = std::make_shared<SampleLayout>();
    MetricsSample s;
    layout->counters.reserve(snap.counters.size());
    s.counters.reserve(snap.counters.size());
    for (const auto &[n, v] : snap.counters) {
        layout->counters.push_back(n);
        s.counters.push_back(v);
    }
    layout->histograms.reserve(snap.histograms.size());
    s.histogramSums.reserve(snap.histograms.size());
    for (const auto &h : snap.histograms) {
        layout->histograms.push_back(h.name);
        s.histogramSums.push_back(h.sum);
    }
    s.layout = std::move(layout);
    return s;
}

void
MetricsSnapshot::writeJson(std::ostream &os, bool pretty) const
{
    JsonWriter w(os, pretty);
    w.beginObject();
    w.key("counters");
    w.beginObject();
    for (const auto &[n, v] : counters)
        w.kv(n, v);
    w.endObject();
    w.key("gauges");
    w.beginObject();
    for (const auto &[n, v] : gauges)
        w.kv(n, v);
    w.endObject();
    w.key("histograms");
    w.beginArray();
    for (const auto &h : histograms) {
        w.beginObject();
        w.kv("name", h.name);
        w.kv("count", h.count);
        w.kv("mean", h.mean);
        w.kv("min", h.min);
        w.kv("max", h.max);
        w.kv("sum", h.sum);
        w.kv("p50", h.p50);
        w.kv("p90", h.p90);
        w.kv("p99", h.p99);
        w.endObject();
    }
    w.endArray();
    w.endObject();
}

void
MetricRegistry::checkType(const std::string &name, const char *want) const
{
    pc_assert(!name.empty(), "metric name must not be empty");
    const bool isCounter = counters_.count(name) > 0;
    const bool isGauge = gauges_.count(name) > 0;
    const bool isHisto = histograms_.count(name) > 0;
    const char *have = isCounter ? "counter"
                     : isGauge   ? "gauge"
                     : isHisto   ? "histogram"
                                 : want;
    if (std::string_view(have) != want)
        pc_fatal("metric '", name, "' already registered as a ", have,
                 ", requested as a ", want);
}

Counter &
MetricRegistry::counter(const std::string &name)
{
    checkType(name, "counter");
    auto &slot = counters_[name];
    if (!slot) {
        slot.reset(new Counter(name));
        layout_.reset();
    }
    return *slot;
}

Gauge &
MetricRegistry::gauge(const std::string &name)
{
    checkType(name, "gauge");
    auto &slot = gauges_[name];
    if (!slot)
        slot.reset(new Gauge(name));
    return *slot;
}

Histogram &
MetricRegistry::histogram(const std::string &name)
{
    checkType(name, "histogram");
    auto &slot = histograms_[name];
    if (!slot) {
        slot.reset(new Histogram(name));
        layout_.reset();
    }
    if (slot->exact())
        pc_fatal("histogram '", name,
                 "' already registered in exact mode, requested as "
                 "sketch mode");
    return *slot;
}

Histogram &
MetricRegistry::exactHistogram(const std::string &name)
{
    checkType(name, "histogram");
    auto &slot = histograms_[name];
    if (!slot) {
        slot.reset(new Histogram(name, /*exact=*/true));
        layout_.reset();
    }
    if (!slot->exact())
        pc_fatal("histogram '", name,
                 "' already registered in sketch mode, requested as "
                 "exact mode");
    return *slot;
}

const Counter *
MetricRegistry::findCounter(const std::string &name) const
{
    auto it = counters_.find(name);
    return it == counters_.end() ? nullptr : it->second.get();
}

const Gauge *
MetricRegistry::findGauge(const std::string &name) const
{
    auto it = gauges_.find(name);
    return it == gauges_.end() ? nullptr : it->second.get();
}

const Histogram *
MetricRegistry::findHistogram(const std::string &name) const
{
    auto it = histograms_.find(name);
    return it == histograms_.end() ? nullptr : it->second.get();
}

MetricsSnapshot
MetricRegistry::snapshot() const
{
    MetricsSnapshot s;
    s.counters.reserve(counters_.size());
    for (const auto &[n, c] : counters_)
        s.counters.emplace_back(n, c->value());
    s.gauges.reserve(gauges_.size());
    for (const auto &[n, g] : gauges_)
        s.gauges.emplace_back(n, g->value());
    s.histograms.reserve(histograms_.size());
    for (const auto &[n, h] : histograms_) {
        HistogramSummary hs;
        hs.name = n;
        hs.count = h->count();
        hs.mean = h->mean();
        hs.min = h->min();
        hs.max = h->max();
        hs.sum = h->sum();
        static constexpr double kQs[] = {0.50, 0.90, 0.99};
        double q[3] = {};
        h->quantiles(kQs, q);
        hs.p50 = q[0];
        hs.p90 = q[1];
        hs.p99 = q[2];
        s.histograms.push_back(std::move(hs));
    }
    return s;
}

MetricsSample
MetricRegistry::sample() const
{
    if (!layout_) {
        auto layout = std::make_shared<SampleLayout>();
        layoutCounters_.clear();
        for (const auto &[n, c] : counters_) {
            layout->counters.push_back(n);
            layoutCounters_.push_back(c.get());
        }
        layoutHistograms_.clear();
        for (const auto &[n, h] : histograms_) {
            layout->histograms.push_back(n);
            layoutHistograms_.push_back(h.get());
        }
        layout_ = std::move(layout);
    }
    MetricsSample s;
    s.layout = layout_;
    s.counters.reserve(layoutCounters_.size());
    for (const Counter *c : layoutCounters_)
        s.counters.push_back(c->value());
    s.histogramSums.reserve(layoutHistograms_.size());
    for (const Histogram *h : layoutHistograms_)
        s.histogramSums.push_back(h->sum());
    return s;
}

void
MetricRegistry::mergeFrom(const MetricRegistry &other)
{
    for (const auto &[n, c] : other.counters_)
        counter(n).bump(c->value());
    for (const auto &[n, g] : other.gauges_)
        gauge(n).set(g->value());
    for (const auto &[n, h] : other.histograms_) {
        auto it = histograms_.find(n);
        if (it != histograms_.end()) {
            it->second->mergeFrom(*h);
            continue;
        }
        // Absent here: create in the source's mode, then fold.
        Histogram &dst = h->exact() ? exactHistogram(n) : histogram(n);
        dst.mergeFrom(*h);
    }
}

} // namespace pc::obs
