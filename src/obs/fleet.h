/**
 * @file
 * Fleet roll-up: merge per-device metric registries into one
 * fleet-wide view, roll windowed time series, and flag drift.
 *
 * A thousand simulated handsets each fill a private MetricRegistry.
 * The collector reduces them three ways:
 *
 *  - **Fleet registry** — every device registry folded into one via
 *    MetricRegistry::mergeFrom (exact counter sums and Welford-merged
 *    moments, sketch-merged quantiles), plus one registry per user
 *    class.
 *  - **Time series** — at each window boundary the harness hands
 *    collect() the device's MetricsSample (MetricRegistry::sample:
 *    counter values and histogram sums under a shared name layout).
 *    The collector subtracts it from the device's previous sample and
 *    records the window's counter deltas, per-histogram sum deltas
 *    (energy, latency mass) and derived per-device ratios (hit rate,
 *    stale/degraded share) into the fleet series and the device's
 *    class series. Ratios are recorded as *value* observations, so a
 *    window row carries the distribution across devices, not just the
 *    fleet mean.
 *  - **Anomaly scan** — an EWMA drift detector walks the fleet series
 *    and flags windows whose value sits more than `threshold`
 *    standard deviations from the smoothed expectation (with a
 *    variance floor so a flat baseline cannot manufacture infinite
 *    z-scores). An injected mid-run radio outage shows up here as a
 *    hit-rate/energy anomaly in exactly the outage windows.
 *
 * The protocol is sequential by design — one device is folded at a
 * time, so the collector never holds more than one open device:
 *
 *     collector.beginDevice("heavy");
 *     for each window: ... simulate ...; collector.collect(t, reg.sample());
 *     collector.endDevice(reg);
 *
 * The parallel fleet harness keeps this protocol: worker threads
 * simulate devices concurrently, but each worker only *captures* its
 * device's per-window MetricsSamples plus its final registry; the
 * reducing thread then replays them through beginDevice /
 * collect(t, sample) / endDevice in device-index order. Because the
 * collector sees the exact operation sequence of the sequential run,
 * its output is byte-identical at every thread count — which is why
 * there is deliberately NO collector-merge API: folding per-worker
 * collectors would go through RunningStat::merge / sketch merges,
 * which are associative only up to floating-point rounding and so
 * cannot honor a byte-exact gate.
 *
 * The fold is an array subtraction. Names are compared only when a
 * sample's layout differs from the previous one (a metric registered
 * in between, or a new device): then the delta aligns by name, a name
 * the previous sample lacked reading as 0. Series entries are reached
 * through slots the collector resolves once per name and window, so a
 * device-month costs no string lookups. Both collect() overloads —
 * sample and snapshot — go through that one fold.
 *
 * Everything is deterministic: map-ordered iteration, deterministic
 * sketch merges, %.10g CSV formatting.
 */

#ifndef PC_OBS_FLEET_H
#define PC_OBS_FLEET_H

#include <array>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "util/types.h"

namespace pc::obs {

/** One flagged window of one series. */
struct Anomaly
{
    std::string series;   ///< e.g. "device.hit_rate".
    SimTime windowStart;  ///< Window the excursion landed in.
    double value;         ///< Observed windowed value.
    double expected;      ///< EWMA expectation before the window.
    double zscore;        ///< Signed deviation in floored stddevs.
};

/** EWMA drift-detector knobs. */
struct DriftConfig
{
    double alpha = 0.3;      ///< EWMA smoothing factor in (0, 1].
    double threshold = 3.0;  ///< |z| at or above this flags a window.
    double minStddev = 1e-9; ///< Variance floor (in value units).
    std::size_t warmup = 3;  ///< Windows consumed before flagging.
};

/**
 * EWMA z-score scan of one series. `values[i]` is the windowed value
 * whose window starts at `starts[i]`. Returns flagged windows in
 * order. Exposed for tests and custom series.
 */
std::vector<Anomaly> driftScan(const std::string &series,
                               const std::vector<double> &values,
                               const std::vector<SimTime> &starts,
                               const DriftConfig &cfg = {});

/** Collector configuration. */
struct FleetConfig
{
    SimTime windowWidth = 0;  ///< Series window width (> 0), e.g. a month.
    std::size_t maxWindows = TimeSeries::kDefaultMaxWindows;
};

/** The collector. See file comment for the protocol. */
class FleetCollector
{
  public:
    explicit FleetCollector(FleetConfig cfg);

    /** Start a device of user class `userClass`. */
    void beginDevice(const std::string &userClass);

    /**
     * Fold the current device's window starting at `windowStart`: the
     * delta of `sample` against this device's previous collect().
     * Call once per window; a device's window starts must strictly
     * ascend (asserted).
     */
    void collect(SimTime windowStart, MetricsSample sample);

    /**
     * collect() from a snapshot captured earlier:
     * collect(windowStart, MetricsSample::fromSnapshot(snap)), so it
     * folds exactly as the registry it was taken from would.
     */
    void collect(SimTime windowStart, const MetricsSnapshot &snap);

    /** Finish the current device: fold its registry into the fleet. */
    void endDevice(const MetricRegistry &reg);

    /**
     * Fold a cloud-side registry ("server.*" from the update service)
     * into the fleet registry, so one snapshot carries cloud metrics
     * (queue depths, delta sizes, sync outcomes) next to the devices'.
     * Call outside the begin/end-device protocol, typically once after
     * the run. Does not count as a device.
     */
    void mergeCloud(const MetricRegistry &reg);

    /** Configured series window width (before any downsampling). */
    SimTime windowWidth() const { return cfg_.windowWidth; }

    /** Devices folded in so far. */
    std::size_t devices() const { return devices_; }

    /** Devices per user class. */
    const std::map<std::string, std::size_t> &classDevices() const
    {
        return classDevices_;
    }

    /** Every device registry merged. */
    const MetricRegistry &fleetRegistry() const { return fleet_; }

    /** Per-class merged registries. */
    const std::map<std::string, MetricRegistry> &classRegistries() const
    {
        return classRegs_;
    }

    /** Fleet-wide windowed series. */
    const TimeSeries &fleetSeries() const { return fleetSeries_; }

    /** Per-class windowed series. */
    const std::map<std::string, TimeSeries> &classSeries() const
    {
        return classSeries_;
    }

    /**
     * Drift scan over the standard fleet series: windowed hit rate,
     * stale/degraded share, per-window energy and the per-device
     * value distributions' means. Sorted by |z| descending, ties by
     * (series, window).
     */
    std::vector<Anomaly> scanAnomalies(const DriftConfig &cfg = {}) const;

    /** Fleet series CSV (TimeSeries::writeCsv). */
    void writeSeriesCsv(std::ostream &os) const
    {
        fleetSeries_.writeCsv(os);
    }

    /** Anomaly report CSV: `series,window_start_s,value,expected,z`. */
    static void writeAnomaliesCsv(std::ostream &os,
                                  const std::vector<Anomaly> &anomalies);

  private:
    /** Derived per-device values, recorded when the window saw queries. */
    enum Value { HitRate, StaleRate, DegradedRate, EnergyMj, kValues };

    /**
     * What the fold derives once per sample layout: each name's id in
     * the collector's name tables (which key the slot caches), the
     * energy histograms and the positions of the ratio inputs.
     */
    struct LayoutIds
    {
        std::shared_ptr<const SampleLayout> layout;
        std::vector<u32> counters;   ///< Counter name ids.
        std::vector<u32> sums;       ///< Histogram ".sum" accum ids.
        std::vector<char> energy;    ///< Histogram is device.energy_mj.*.
        /** Counter positions of the ratio inputs; npos when absent. */
        std::size_t queries = std::string::npos, hits = std::string::npos,
                    stale = std::string::npos, degraded = std::string::npos;
    };

    /** One series window's slots by name id; null until first use. */
    struct WindowSlots
    {
        std::vector<u64 *> counters;
        std::vector<double *> sums;
        std::array<TimeSeries::ValueSlot, kValues> values;
    };

    /** Slot cache of one series, dropped when its windows change. */
    struct SeriesSlots
    {
        u64 generation = ~u64(0);
        std::vector<WindowSlots> windows;
    };

    /** ids_ for `layout`, re-derived only when its names differ. */
    const LayoutIds &
    layoutIds(const std::shared_ptr<const SampleLayout> &layout);

    /** delta_ / sumDelta_ = `cur` minus the device's previous sample. */
    void windowDelta(const MetricsSample &cur);

    /** Record delta_, sumDelta_ and `values` into one series. */
    void recordWindow(TimeSeries &series, SeriesSlots &cache, SimTime t,
                      const LayoutIds &ids, const double *values);

    FleetConfig cfg_;
    MetricRegistry fleet_;
    std::map<std::string, MetricRegistry> classRegs_;
    TimeSeries fleetSeries_;
    std::map<std::string, TimeSeries> classSeries_;
    std::map<std::string, std::size_t> classDevices_;
    std::size_t devices_ = 0;

    bool inDevice_ = false;
    std::string currentClass_;
    TimeSeries *classSeriesNow_ = nullptr;
    SeriesSlots *classSlotsNow_ = nullptr;
    MetricsSample devicePrev_;  ///< Null layout before a device's first window.
    SimTime prevStart_ = 0;

    // Fold state: interned names, the current layout's ids, slot
    // caches and the window's delta scratch.
    std::unordered_map<std::string, u32> counterIds_, sumIds_;
    std::vector<std::string> counterNames_, sumNames_;
    LayoutIds ids_;
    SeriesSlots fleetSlots_;
    std::map<std::string, SeriesSlots> classSlots_;
    std::vector<u64> delta_;
    std::vector<double> sumDelta_;
};

} // namespace pc::obs

#endif // PC_OBS_FLEET_H
