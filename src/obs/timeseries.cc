#include "obs/timeseries.h"

#include <algorithm>

#include "obs/csvutil.h"
#include "util/logging.h"

namespace pc::obs {

TimeSeries::TimeSeries(SimTime windowWidth, std::size_t maxWindows)
    : width_(windowWidth), maxWindows_(maxWindows)
{
    pc_assert(windowWidth > 0, "TimeSeries window width must be > 0");
    pc_assert(maxWindows >= 2, "TimeSeries needs at least 2 windows");
}

std::size_t
TimeSeries::windowIndex(SimTime t)
{
    pc_assert(t >= 0, "TimeSeries sim time must be non-negative");
    for (;;) {
        const SimTime start = (t / width_) * width_;
        auto it = std::lower_bound(
            windows_.begin(), windows_.end(), start,
            [](const SeriesWindow &w, SimTime s) { return w.start < s; });
        if (it != windows_.end() && it->start == start)
            return std::size_t(it - windows_.begin());
        if (windows_.size() >= maxWindows_) {
            // Inserting would exceed the cap: halve resolution and
            // retry (the width change moves the target window start).
            downsample();
            continue;
        }
        SeriesWindow w;
        w.start = start;
        w.width = width_;
        ++generation_;
        const auto at = windows_.insert(it, std::move(w));
        return std::size_t(at - windows_.begin());
    }
}

void
TimeSeries::downsample()
{
    width_ *= 2;
    pc_assert(width_ > 0, "TimeSeries window width overflow");
    ++downsamples_;
    ++generation_;
    std::vector<SeriesWindow> merged;
    merged.reserve(windows_.size() / 2 + 1);
    for (auto &w : windows_) {
        const SimTime start = (w.start / width_) * width_;
        if (!merged.empty() && merged.back().start == start) {
            SeriesWindow &dst = merged.back();
            for (const auto &[n, v] : w.counters)
                dst.counters[n] += v;
            for (const auto &[n, v] : w.accums)
                dst.accums[n] += v;
            for (const auto &[n, s] : w.points)
                dst.points[n].merge(s);
            for (const auto &[n, s] : w.sketches)
                dst.sketches[n].mergeFrom(s);
        } else {
            w.start = start;
            w.width = width_;
            merged.push_back(std::move(w));
        }
    }
    windows_ = std::move(merged);
}

u64 &
TimeSeries::counterSlot(std::size_t w, const std::string &name)
{
    return windows_.at(w).counters[name];
}

double &
TimeSeries::accumSlot(std::size_t w, const std::string &name)
{
    return windows_.at(w).accums[name];
}

TimeSeries::ValueSlot
TimeSeries::valueSlot(std::size_t w, const std::string &name)
{
    SeriesWindow &win = windows_.at(w);
    return {&win.points[name], &win.sketches[name]};
}

std::vector<double>
TimeSeries::counterSeries(const std::string &name) const
{
    std::vector<double> out;
    out.reserve(windows_.size());
    for (const auto &w : windows_) {
        auto it = w.counters.find(name);
        out.push_back(it == w.counters.end() ? 0.0 : double(it->second));
    }
    return out;
}

std::vector<double>
TimeSeries::accumSeries(const std::string &name) const
{
    std::vector<double> out;
    out.reserve(windows_.size());
    for (const auto &w : windows_) {
        auto it = w.accums.find(name);
        out.push_back(it == w.accums.end() ? 0.0 : it->second);
    }
    return out;
}

std::vector<double>
TimeSeries::valueMeanSeries(const std::string &name) const
{
    std::vector<double> out;
    out.reserve(windows_.size());
    for (const auto &w : windows_) {
        auto it = w.points.find(name);
        out.push_back(it == w.points.end() ? 0.0 : it->second.mean());
    }
    return out;
}

void
TimeSeries::writeCsv(std::ostream &os) const
{
    os << "start_s,width_s,kind,name,value,count,mean,p50,p90,p99\n";
    static constexpr double kQs[] = {0.50, 0.90, 0.99};
    for (const auto &w : windows_) {
        const std::string at = csvNumber(double(w.start) / 1e9) + ',' +
                               csvNumber(double(w.width) / 1e9) + ',';
        for (const auto &[n, v] : w.counters) {
            os << at << "counter," << csvField(n) << ','
               << csvNumber(double(v)) << ",0,0,0,0,0\n";
        }
        for (const auto &[n, v] : w.accums) {
            os << at << "accum," << csvField(n) << ',' << csvNumber(v)
               << ",0,0,0,0,0\n";
        }
        for (const auto &[n, s] : w.points) {
            const auto sk = w.sketches.find(n);
            double q[3] = {0.0, 0.0, 0.0};
            if (sk != w.sketches.end())
                sk->second.quantiles(kQs, q);
            os << at << "value," << csvField(n) << ','
               << csvNumber(s.sum()) << ',' << csvNumber(double(s.count()))
               << ',' << csvNumber(s.mean()) << ',' << csvNumber(q[0])
               << ',' << csvNumber(q[1]) << ',' << csvNumber(q[2]) << '\n';
        }
    }
}

} // namespace pc::obs
