#include "obs/fleet.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <string_view>

#include "obs/csvutil.h"
#include "util/logging.h"

namespace pc::obs {

namespace {

/** values[i] keyed by names[i]; the first of duplicate names wins. */
template <class V>
std::unordered_map<std::string_view, V>
byName(const std::vector<std::string> &names, const std::vector<V> &values)
{
    std::unordered_map<std::string_view, V> at;
    for (std::size_t i = 0; i < names.size(); ++i)
        at.try_emplace(names[i], values[i]);
    return at;
}

/** Id of `name` in `ids`, appending it to `names` (as name + suffix)
 *  when new. */
u32
intern(std::unordered_map<std::string, u32> &ids,
       std::vector<std::string> &names, const std::string &name,
       const char *suffix)
{
    const auto [it, added] = ids.try_emplace(name, u32(names.size()));
    if (added)
        names.push_back(name + suffix);
    return it->second;
}

} // namespace

std::vector<Anomaly>
driftScan(const std::string &series, const std::vector<double> &values,
          const std::vector<SimTime> &starts, const DriftConfig &cfg)
{
    pc_assert(values.size() == starts.size(),
              "driftScan: values/starts length mismatch");
    pc_assert(cfg.alpha > 0.0 && cfg.alpha <= 1.0,
              "driftScan: alpha must be in (0, 1]");
    std::vector<Anomaly> out;
    if (values.empty())
        return out;

    // EWMA of mean and variance, seeded on the first window. Each
    // window is scored against the expectation *before* it, then
    // folded in — so a step change is flagged at onset and the
    // detector re-converges to the new level instead of alarming
    // forever.
    double mean = values.front();
    double var = 0.0;
    for (std::size_t i = 1; i < values.size(); ++i) {
        const double sd = std::max(std::sqrt(var), cfg.minStddev);
        const double z = (values[i] - mean) / sd;
        if (i >= cfg.warmup && std::abs(z) >= cfg.threshold)
            out.push_back({series, starts[i], values[i], mean, z});
        const double d = values[i] - mean;
        mean += cfg.alpha * d;
        var = (1.0 - cfg.alpha) * (var + cfg.alpha * d * d);
    }
    return out;
}

FleetCollector::FleetCollector(FleetConfig cfg)
    : cfg_(cfg), fleetSeries_(cfg.windowWidth, cfg.maxWindows)
{
}

void
FleetCollector::beginDevice(const std::string &userClass)
{
    pc_assert(!inDevice_, "FleetCollector: beginDevice while a device "
                          "is still open (endDevice missing)");
    pc_assert(!userClass.empty(), "FleetCollector: empty user class");
    inDevice_ = true;
    currentClass_ = userClass;
    devicePrev_ = MetricsSample{};
    classSeriesNow_ =
        &classSeries_.try_emplace(userClass, cfg_.windowWidth,
                                  cfg_.maxWindows)
             .first->second;
    classSlotsNow_ = &classSlots_[userClass];
    classRegs_[userClass];
    classDevices_[userClass];
}

void
FleetCollector::collect(SimTime windowStart, const MetricsSnapshot &snap)
{
    collect(windowStart, MetricsSample::fromSnapshot(snap));
}

void
FleetCollector::collect(SimTime windowStart, MetricsSample sample)
{
    pc_assert(inDevice_, "FleetCollector: collect outside a device");
    pc_assert(sample.layout &&
                  sample.counters.size() == sample.layout->counters.size() &&
                  sample.histogramSums.size() ==
                      sample.layout->histograms.size(),
              "FleetCollector: sample does not match its layout");
    pc_assert(!devicePrev_.layout || windowStart > prevStart_,
              "FleetCollector: window starts must strictly ascend per "
              "device (", windowStart, " after ", prevStart_, ")");

    const LayoutIds &ids = layoutIds(sample.layout);
    windowDelta(sample);
    devicePrev_ = std::move(sample);
    prevStart_ = windowStart;
    // A registry with no counters or histograms records nothing, and
    // so must not create a window either.
    if (ids.counters.empty() && ids.sums.empty())
        return;

    // Histograms cannot delta their distributions, but their summed
    // mass can: per-window energy/latency totals are sum differences.
    double energy = 0.0;
    for (std::size_t j = 0; j < ids.sums.size(); ++j) {
        if (ids.energy[j])
            energy += sumDelta_[j];
    }

    // Derived per-device observations: recorded as values, so a
    // window summarizes the distribution across devices.
    const auto at = [&](std::size_t i) {
        return i == std::string::npos ? 0.0 : double(delta_[i]);
    };
    const double qd = at(ids.queries);
    double values[kValues] = {};
    if (qd > 0.0) {
        values[HitRate] = at(ids.hits) / qd;
        values[StaleRate] = at(ids.stale) / qd;
        values[DegradedRate] = at(ids.degraded) / qd;
        values[EnergyMj] = energy;
    }
    recordWindow(fleetSeries_, fleetSlots_, windowStart, ids,
                 qd > 0.0 ? values : nullptr);
    recordWindow(*classSeriesNow_, *classSlotsNow_, windowStart, ids,
                 qd > 0.0 ? values : nullptr);
}

const FleetCollector::LayoutIds &
FleetCollector::layoutIds(const std::shared_ptr<const SampleLayout> &layout)
{
    if (ids_.layout == layout)
        return ids_;
    if (ids_.layout && *ids_.layout == *layout) {
        ids_.layout = layout; // same names, another device's layout
        return ids_;
    }
    // New names: intern them and find the ratio inputs (first match,
    // as a name lookup would).
    LayoutIds ids;
    ids.layout = layout;
    const auto &cs = layout->counters;
    for (const auto &c : cs)
        ids.counters.push_back(intern(counterIds_, counterNames_, c, ""));
    const auto find = [&](const char *name) {
        const auto it = std::find(cs.begin(), cs.end(), name);
        return it == cs.end() ? std::string::npos
                              : std::size_t(it - cs.begin());
    };
    ids.queries = find("device.queries");
    ids.hits = find("device.cache_hits");
    ids.stale = find("device.degraded.stale");
    ids.degraded = find("device.degraded.serves");
    for (const auto &h : layout->histograms) {
        ids.sums.push_back(intern(sumIds_, sumNames_, h, ".sum"));
        ids.energy.push_back(h.rfind("device.energy_mj.", 0) == 0);
    }
    ids_ = std::move(ids);
    return ids_;
}

void
FleetCollector::windowDelta(const MetricsSample &cur)
{
    const MetricsSample &prev = devicePrev_;
    const std::size_t nc = cur.counters.size();
    const std::size_t nh = cur.histogramSums.size();
    delta_.resize(nc);
    sumDelta_.resize(nh);
    const bool aligned =
        prev.layout &&
        (prev.layout == cur.layout || *prev.layout == *cur.layout);
    if (aligned) {
        for (std::size_t i = 0; i < nc; ++i) {
            const u64 v = cur.counters[i], before = prev.counters[i];
            delta_[i] = v >= before ? v - before : 0;
        }
        for (std::size_t j = 0; j < nh; ++j)
            sumDelta_[j] = cur.histogramSums[j] - prev.histogramSums[j];
        return;
    }

    // The layout changed (or this is the device's first window): align
    // by name; a name the previous sample lacks reads as 0.
    static const SampleLayout kNone;
    const SampleLayout &was = prev.layout ? *prev.layout : kNone;
    const auto prevCounters = byName(was.counters, prev.counters);
    const auto prevSums = byName(was.histograms, prev.histogramSums);
    for (std::size_t i = 0; i < nc; ++i) {
        const auto it = prevCounters.find(cur.layout->counters[i]);
        const u64 v = cur.counters[i];
        const u64 b = it == prevCounters.end() ? 0 : it->second;
        delta_[i] = v >= b ? v - b : 0;
    }
    for (std::size_t j = 0; j < nh; ++j) {
        const auto it = prevSums.find(cur.layout->histograms[j]);
        sumDelta_[j] = cur.histogramSums[j] -
                       (it == prevSums.end() ? 0.0 : it->second);
    }
}

void
FleetCollector::recordWindow(TimeSeries &series, SeriesSlots &cache,
                             SimTime t, const LayoutIds &ids,
                             const double *values)
{
    const std::size_t w = series.windowIndex(t);
    if (cache.generation != series.generation()) {
        cache.generation = series.generation();
        cache.windows.clear();
    }
    if (cache.windows.size() <= w)
        cache.windows.resize(series.windows().size());
    WindowSlots &slots = cache.windows[w];
    slots.counters.resize(counterNames_.size(), nullptr);
    slots.sums.resize(sumNames_.size(), nullptr);

    for (std::size_t i = 0; i < ids.counters.size(); ++i) {
        u64 *&slot = slots.counters[ids.counters[i]];
        if (!slot)
            slot = &series.counterSlot(w, counterNames_[ids.counters[i]]);
        *slot += delta_[i];
    }
    for (std::size_t j = 0; j < ids.sums.size(); ++j) {
        double *&slot = slots.sums[ids.sums[j]];
        if (!slot)
            slot = &series.accumSlot(w, sumNames_[ids.sums[j]]);
        *slot += sumDelta_[j];
    }
    if (!values)
        return;
    static const std::string kNames[kValues] = {
        "device.hit_rate", "device.stale_rate", "device.degraded_rate",
        "device.energy_mj"};
    for (int v = 0; v < kValues; ++v) {
        TimeSeries::ValueSlot &slot = slots.values[v];
        if (!slot.stat)
            slot = series.valueSlot(w, kNames[v]);
        slot.add(values[v]);
    }
}

void
FleetCollector::endDevice(const MetricRegistry &reg)
{
    pc_assert(inDevice_, "FleetCollector: endDevice outside a device");
    fleet_.mergeFrom(reg);
    classRegs_.at(currentClass_).mergeFrom(reg);
    ++classDevices_.at(currentClass_);
    ++devices_;
    inDevice_ = false;
    currentClass_.clear();
}

void
FleetCollector::mergeCloud(const MetricRegistry &reg)
{
    pc_assert(!inDevice_,
              "FleetCollector: mergeCloud inside a device");
    fleet_.mergeFrom(reg);
}

std::vector<Anomaly>
FleetCollector::scanAnomalies(const DriftConfig &cfg) const
{
    std::vector<SimTime> starts;
    starts.reserve(fleetSeries_.windows().size());
    for (const auto &w : fleetSeries_.windows())
        starts.push_back(w.start);

    std::vector<Anomaly> all;
    const auto scan = [&](const std::string &name,
                          const std::vector<double> &vals) {
        auto found = driftScan(name, vals, starts, cfg);
        all.insert(all.end(), found.begin(), found.end());
    };

    // Fleet-level ratios of windowed counter sums.
    const auto ratioSeries = [&](const char *num, const char *den) {
        const auto a = fleetSeries_.counterSeries(num);
        const auto b = fleetSeries_.counterSeries(den);
        std::vector<double> r(a.size(), 0.0);
        for (std::size_t i = 0; i < a.size(); ++i)
            r[i] = b[i] > 0.0 ? a[i] / b[i] : 0.0;
        return r;
    };
    scan("fleet.hit_rate",
         ratioSeries("device.cache_hits", "device.queries"));
    scan("fleet.stale_rate",
         ratioSeries("device.degraded.stale", "device.queries"));
    scan("fleet.degraded_rate",
         ratioSeries("device.degraded.serves", "device.queries"));

    // Every accumulated sum series (energy, latency mass, ...) and
    // every per-device value distribution's windowed mean.
    std::set<std::string> accumNames, valueNames;
    for (const auto &w : fleetSeries_.windows()) {
        for (const auto &[n, v] : w.accums)
            accumNames.insert(n);
        for (const auto &[n, s] : w.points)
            valueNames.insert(n);
    }
    for (const auto &n : accumNames)
        scan(n, fleetSeries_.accumSeries(n));
    for (const auto &n : valueNames)
        scan(n + ".mean", fleetSeries_.valueMeanSeries(n));

    std::sort(all.begin(), all.end(),
              [](const Anomaly &a, const Anomaly &b) {
                  const double za = std::abs(a.zscore);
                  const double zb = std::abs(b.zscore);
                  if (za != zb)
                      return za > zb;
                  if (a.series != b.series)
                      return a.series < b.series;
                  return a.windowStart < b.windowStart;
              });
    return all;
}

void
FleetCollector::writeAnomaliesCsv(std::ostream &os,
                                  const std::vector<Anomaly> &anomalies)
{
    os << "series,window_start_s,value,expected,z\n";
    for (const auto &a : anomalies) {
        os << csvField(a.series) << ','
           << csvNumber(double(a.windowStart) / 1e9) << ','
           << csvNumber(a.value) << ',' << csvNumber(a.expected) << ','
           << csvNumber(a.zscore) << '\n';
    }
}

} // namespace pc::obs
