/**
 * @file
 * Cross-layer metrics registry.
 *
 * Every layer of the serve-a-query pipeline (device, radio links, the
 * flash store, PocketSearch, the fault plan) registers typed handles —
 * counters, gauges, distributions — under hierarchical dotted names
 * ("device.radio.3g.retries", "simfs.reads") in one MetricRegistry.
 * A snapshot flattens every metric into a deterministic, name-sorted
 * report; a window sample copies only counter values and histogram
 * sums, all the fleet fold reads; deltas isolate one phase of an
 * experiment; merges fold per-shard registries (e.g. one device per
 * serving path, or a whole simulated fleet) into one view — counts
 * and moments combine exactly (parallel Welford), quantiles via
 * mergeable sketches within a documented error bound.
 *
 * Handles returned by the registry are stable for the registry's
 * lifetime, so hot paths bump a cached pointer instead of re-hashing
 * the metric name per event.
 */

#ifndef PC_OBS_METRICS_H
#define PC_OBS_METRICS_H

#include <map>
#include <memory>
#include <ostream>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "util/sketch.h"
#include "util/stats.h"
#include "util/types.h"

namespace pc::obs {

/** Monotonic event counter. */
class Counter
{
  public:
    /** Increment by `delta`. */
    void bump(u64 delta = 1) { value_ += delta; }
    /** Current value. */
    u64 value() const { return value_; }
    /** Registered name. */
    const std::string &name() const { return name_; }

  private:
    friend class MetricRegistry;
    explicit Counter(std::string name) : name_(std::move(name)) {}
    std::string name_;
    u64 value_ = 0;
};

/** Last-write-wins instantaneous value (energy so far, bytes live). */
class Gauge
{
  public:
    /** Set the current value. */
    void set(double v) { value_ = v; }
    /** Current value. */
    double value() const { return value_; }
    /** Registered name. */
    const std::string &name() const { return name_; }

  private:
    friend class MetricRegistry;
    explicit Gauge(std::string name) : name_(std::move(name)) {}
    std::string name_;
    double value_ = 0.0;
};

/**
 * Value distribution with bounded-memory quantiles.
 *
 * Keeps a RunningStat for O(1) exact moments plus a mergeable
 * QuantileSketch for the quantile summary, so a million-query run
 * costs O(k) memory per metric (the sketch's documented cap) instead
 * of one stored double per observation. Estimated quantiles stay
 * within the sketch's epsilon() of the exact empirical quantiles —
 * and are bit-exact until the stream outgrows the sketch's first
 * buffer, which keeps small unit-test streams exact.
 *
 * Tests that need true quantiles on larger streams can opt into exact
 * mode (MetricRegistry::exactHistogram), which stores the full sample
 * in an EmpiricalCdf exactly as before. Exact mode is the opt-in
 * exception, not the default: its memory is unbounded.
 */
class Histogram
{
  public:
    /** Fold one observation in. */
    void
    observe(double x)
    {
        stat_.add(x);
        if (exact_)
            cdf_.add(x);
        else
            sketch_.add(x);
    }

    /** Number of observations. */
    u64 count() const { return stat_.count(); }
    /** Mean; 0 when empty. */
    double mean() const { return stat_.mean(); }
    /** Minimum; 0 when empty. */
    double min() const { return stat_.min(); }
    /** Maximum; 0 when empty. */
    double max() const { return stat_.max(); }
    /** Sum of observations. */
    double sum() const { return stat_.sum(); }
    /** q-quantile (exact in exact mode, else sketched); 0 when empty. */
    double quantile(double q) const;

    /**
     * out[i] = quantile(qs[i]), bit for bit, from one sort of the
     * sketch. @pre out.size() == qs.size().
     */
    void quantiles(std::span<const double> qs, std::span<double> out) const;

    /** Moments accumulator. */
    const RunningStat &stat() const { return stat_; }

    /** True when this histogram stores the full sample. */
    bool exact() const { return exact_; }

    /** The quantile sketch. @pre !exact(). */
    const QuantileSketch &sketch() const;

    /** Stored sample. @pre exact(). */
    const EmpiricalCdf &cdf() const;

    /**
     * Samples/items currently stored: bounded by the sketch cap in
     * sketch mode, equal to count() in exact mode.
     */
    std::size_t retained() const
    {
        return exact_ ? cdf_.size() : sketch_.retained();
    }

    /**
     * Fold another histogram's observations into this one. Exact
     * mode merges exactly (sample union); sketch mode merges sketches
     * (and accepts an exact source by re-adding its samples). Merging
     * a sketch-mode source into an exact-mode target is a fatal
     * configuration error — the samples no longer exist.
     */
    void mergeFrom(const Histogram &other);

    /** Registered name. */
    const std::string &name() const { return name_; }

  private:
    friend class MetricRegistry;
    explicit Histogram(std::string name, bool exact = false)
        : name_(std::move(name)), exact_(exact)
    {
    }
    std::string name_;
    bool exact_;
    RunningStat stat_;
    QuantileSketch sketch_;
    EmpiricalCdf cdf_;
};

/** Flattened summary of one Histogram at snapshot time. */
struct HistogramSummary
{
    std::string name;
    u64 count = 0;
    double mean = 0.0;
    double min = 0.0;
    double max = 0.0;
    double sum = 0.0;
    double p50 = 0.0;
    double p90 = 0.0;
    double p99 = 0.0;
};

/**
 * Point-in-time flattening of a registry: every metric by name, sorted,
 * so reports and serialized output are deterministic.
 */
struct MetricsSnapshot
{
    std::vector<std::pair<std::string, u64>> counters;
    std::vector<std::pair<std::string, double>> gauges;
    std::vector<HistogramSummary> histograms;

    /** Counter value by name; 0 if absent. */
    u64 counterValue(const std::string &name) const;

    /** Serialize as a JSON object. */
    void writeJson(std::ostream &os, bool pretty = false) const;
};

/**
 * Names of a registry's counters and histograms, each list
 * name-sorted as snapshot() orders them. Immutable once built and
 * shared by every MetricsSample taken under it, so samples carry no
 * strings of their own.
 */
struct SampleLayout
{
    std::vector<std::string> counters;
    std::vector<std::string> histograms;

    bool operator==(const SampleLayout &) const = default;
};

/**
 * What the fleet window fold reads of a registry: counter values and
 * histogram sums, aligned to `layout` — no names, no gauges, no
 * quantiles. See MetricRegistry::sample.
 */
struct MetricsSample
{
    std::shared_ptr<const SampleLayout> layout;
    std::vector<u64> counters;          ///< Aligned to layout->counters.
    std::vector<double> histogramSums;  ///< Aligned to layout->histograms.

    /** The same fields read from a snapshot, under a layout of its own. */
    static MetricsSample fromSnapshot(const MetricsSnapshot &snap);
};

/**
 * The registry. Owns every handle it vends; handle references stay
 * valid for the registry's lifetime. Registering the same name with
 * the same type returns the existing handle; reusing a name across
 * types is a fatal configuration error.
 */
class MetricRegistry
{
  public:
    MetricRegistry() = default;
    MetricRegistry(const MetricRegistry &) = delete;
    MetricRegistry &operator=(const MetricRegistry &) = delete;

    /** Find-or-create a counter. */
    Counter &counter(const std::string &name);
    /** Find-or-create a gauge. */
    Gauge &gauge(const std::string &name);
    /** Find-or-create a histogram (bounded sketch quantiles). */
    Histogram &histogram(const std::string &name);
    /**
     * Find-or-create a histogram that stores its full sample for
     * exact quantiles (unbounded memory — tests and small streams
     * only). Requesting a name already registered in sketch mode (or
     * vice versa) is a fatal configuration error.
     */
    Histogram &exactHistogram(const std::string &name);

    /** Lookup without creating; nullptr when absent. */
    const Counter *findCounter(const std::string &name) const;
    const Gauge *findGauge(const std::string &name) const;
    const Histogram *findHistogram(const std::string &name) const;

    /** Flatten every metric, name-sorted. */
    MetricsSnapshot snapshot() const;

    /**
     * Counter values and histogram sums for a window fold. Two array
     * copies under a shared layout, which is rebuilt only when a
     * counter or histogram was registered since the previous sample.
     * Like every other call, not safe concurrently on one registry.
     */
    MetricsSample sample() const;

    /**
     * Fold another registry in: counters add, gauges overwrite,
     * histograms merge (exact sample union in exact mode, sketch
     * merge otherwise — see Histogram::mergeFrom for the mixed-mode
     * rules). Metrics absent here are created in the source's mode.
     */
    void mergeFrom(const MetricRegistry &other);

    /** Number of registered metrics across all types. */
    std::size_t size() const
    {
        return counters_.size() + gauges_.size() + histograms_.size();
    }

  private:
    /** Fatal if `name` is already registered under a different type. */
    void checkType(const std::string &name, const char *want) const;

    std::map<std::string, std::unique_ptr<Counter>> counters_;
    std::map<std::string, std::unique_ptr<Gauge>> gauges_;
    std::map<std::string, std::unique_ptr<Histogram>> histograms_;

    // sample()'s cache: null layout_ means a counter or histogram was
    // registered since it was built; the handle lists follow its order.
    mutable std::shared_ptr<const SampleLayout> layout_;
    mutable std::vector<const Counter *> layoutCounters_;
    mutable std::vector<const Histogram *> layoutHistograms_;
};

} // namespace pc::obs

#endif // PC_OBS_METRICS_H
