/**
 * @file
 * Fixed-window sim-time series: metric roll-ups over time.
 *
 * A snapshot answers "what happened over the whole run"; a fleet
 * operator asks "when did it happen" — did the hit rate dip in month
 * three, did radio energy spike during the outage? A TimeSeries bins
 * recordings into fixed-width simulated-time windows and keeps three
 * roll-up kinds per window:
 *
 *  - **counters** — summed integer deltas ("queries served this
 *    window");
 *  - **accums** — summed doubles ("radio mJ spent this window");
 *  - **values** — per-observation distributions (a RunningStat for
 *    exact moments plus a QuantileSketch for quantiles), e.g. one
 *    per-device hit-rate observation per window, so a window's value
 *    row summarizes the fleet's distribution, not just its mean.
 *
 * Memory is bounded twice over: each window's value distributions are
 * sketches (O(k) per name), and the number of windows is capped —
 * when a recording would exceed maxWindows, adjacent window pairs
 * merge and the window width doubles (classic resolution-halving
 * downsample), so a series over an arbitrarily long run keeps at most
 * maxWindows rows at the coarsest resolution that fits.
 *
 * Determinism: windows and names iterate in sorted order, CSV numbers
 * use the shared %.10g formatting, and sketch merges are
 * deterministic, so writeCsv output is byte-identical across runs.
 */

#ifndef PC_OBS_TIMESERIES_H
#define PC_OBS_TIMESERIES_H

#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "util/sketch.h"
#include "util/stats.h"
#include "util/types.h"

namespace pc::obs {

/** One fixed-width window of rolled-up metrics. */
struct SeriesWindow
{
    SimTime start = 0; ///< Inclusive window start (sim time).
    SimTime width = 0; ///< Window width at the time of emission.
    std::map<std::string, u64> counters;
    std::map<std::string, double> accums;
    std::map<std::string, RunningStat> points;
    std::map<std::string, QuantileSketch> sketches;
};

/**
 * The series. Window boundaries are multiples of the current width
 * from sim time 0; recording into any sim time t >= 0 finds or
 * creates the window containing t.
 */
class TimeSeries
{
  public:
    /** Default cap on retained windows before downsampling. */
    static constexpr std::size_t kDefaultMaxWindows = 256;

    /**
     * @param windowWidth Initial window width (> 0), e.g. one
     *   workload month.
     * @param maxWindows Downsampling threshold (>= 2).
     */
    explicit TimeSeries(SimTime windowWidth,
                        std::size_t maxWindows = kDefaultMaxWindows);

    /**
     * Recording is through slots, resolved once and then added to
     * (the fleet fold records the same names into the same window
     * again and again): windowIndex() finds or creates the window
     * containing t (and may downsample); a *Slot call finds or creates
     * one name's entry in that window. Indices and slots stay valid
     * until generation() changes.
     */
    std::size_t windowIndex(SimTime t);

    /** Bumped whenever a window is added or the series downsamples. */
    u64 generation() const { return generation_; }

    /** Counter `name` of window `w`, created at 0. */
    u64 &counterSlot(std::size_t w, const std::string &name);

    /** Accum `name` of window `w`, created at 0. */
    double &accumSlot(std::size_t w, const std::string &name);

    /** Value distribution `name` of one window (see valueSlot). */
    struct ValueSlot
    {
        RunningStat *stat = nullptr;
        QuantileSketch *sketch = nullptr;

        /** Fold one observation into both the stat and the sketch. */
        void
        add(double x) const
        {
            stat->add(x);
            sketch->add(x);
        }
    };

    /** Value distribution `name` of window `w`, created empty. */
    ValueSlot valueSlot(std::size_t w, const std::string &name);

    /** Retained windows, start-ascending. */
    const std::vector<SeriesWindow> &windows() const { return windows_; }

    /** Current window width (doubles on each downsample). */
    SimTime windowWidth() const { return width_; }

    /** Window cap. */
    std::size_t maxWindows() const { return maxWindows_; }

    /** Resolution-halving downsamples performed so far. */
    u64 downsamples() const { return downsamples_; }

    /**
     * Values of counter `name` per window (0 where absent), window
     * order. Convenience for drift scans and tests.
     */
    std::vector<double> counterSeries(const std::string &name) const;

    /** Same for accums. */
    std::vector<double> accumSeries(const std::string &name) const;

    /** Per-window mean of value `name` (0 where absent). */
    std::vector<double> valueMeanSeries(const std::string &name) const;

    /**
     * Long-format CSV, one row per (window, metric):
     * `start_s,width_s,kind,name,value,count,mean,p50,p90,p99`.
     * Counter/accum rows carry the sum in `value`; value rows carry
     * the distribution columns. Deterministic (sorted, %.10g).
     */
    void writeCsv(std::ostream &os) const;

  private:
    /** Halve resolution: merge adjacent pairs, double the width. */
    void downsample();

    SimTime width_;
    std::size_t maxWindows_;
    u64 downsamples_ = 0;
    u64 generation_ = 0;
    std::vector<SeriesWindow> windows_;
};

} // namespace pc::obs

#endif // PC_OBS_TIMESERIES_H
