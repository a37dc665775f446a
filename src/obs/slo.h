/**
 * @file
 * Declarative SLO engine: typed objectives, error budgets, and
 * multi-window burn rates over fleet telemetry.
 *
 * An SLO spec names an objective over metrics the fleet already
 * publishes — no new instrumentation is required to add one:
 *
 *  - **ratio objectives** (availability / staleness / corruption
 *    rate): a good-fraction target over an event counter and a
 *    bad-event counter ("99.5% of radio attempts deliver uncorrupted
 *    frames"). The error budget is the absolute number of bad events
 *    the objective tolerates: allowed = (1 - objective) x events.
 *  - **latency objectives**: a quantile target against a snapshot
 *    histogram ("p90 miss latency <= 9 s", quantiles from the
 *    registry's mergeable sketches), with per-window burn measured as
 *    windowed mean latency mass per event against a mean budget.
 *
 * Burn rate follows the multi-window convention: per window, burn 1.0
 * means the window consumed budget exactly at the sustainable rate;
 * an SLO is *burning* when both a short lookback (paging-fast) and a
 * long lookback (fires only on sustained regressions) average at or
 * above the threshold. Every burning window becomes a deterministic
 * SloBreach event in the flight recorder — breach ids derive from the
 * recorder's device id and sequence, never clocks, so breach streams
 * are byte-identical at any thread count.
 *
 * Evaluation is a pure fold over a TimeSeries + total snapshot:
 * evaluateSlos() never mutates its inputs, and the windowed series it
 * reads are exactly what FleetCollector already records in the
 * device-index-ordered fold.
 */

#ifndef PC_OBS_SLO_H
#define PC_OBS_SLO_H

#include <string>
#include <vector>

#include "obs/causal.h"
#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "util/types.h"

namespace pc::obs::health {

/** What an SLO objective is about. Ratio kinds share mechanics; the
 *  kind names the failure mode for reports and scoreboards. */
enum class SloKind : u8
{
    LatencyQuantile = 0, ///< Quantile of a latency histogram (ms).
    Availability,        ///< Non-degraded serves / all serves.
    Staleness,           ///< Fresh serves / all serves.
    CorruptionRate,      ///< Clean deliveries / all deliveries.
};

/** Metric-safe display name ("latency_quantile", "availability", ...). */
const char *sloKindName(SloKind k);

/**
 * One declarative objective. Ratio kinds read `eventCounter` (the
 * denominator) and `badCounter` (events that consume budget);
 * LatencyQuantile reads `histogram` for the attainment quantile and
 * normalizes the histogram's windowed mass by `eventCounter` for
 * burn. All referenced metrics must be fleet-snapshot names.
 */
struct SloSpec
{
    std::string name;
    SloKind kind = SloKind::Availability;

    /** Required good fraction in (0,1) — ratio kinds only. */
    double objective = 0.999;
    std::string eventCounter;
    std::string badCounter;

    /** Latency kinds: histogram + quantile target. The snapshot keeps
     *  p50/p90/p99, so `quantile` snaps to the nearest of those. */
    std::string histogram;
    double quantile = 0.9;
    double targetMs = 0.0;
    /** Latency burn: windowed (mass / events) over this is burn 1.0. */
    double meanBudgetMs = 0.0;

    /** Multi-window burn evaluation (windows of the fed TimeSeries). */
    std::size_t shortWindows = 1;
    std::size_t longWindows = 4;
    double burnThreshold = 1.0;
};

/** Evaluated state of one SLO: attainment, budget, burn, breaches. */
struct SloStatus
{
    SloSpec spec;

    u64 events = 0; ///< Total events (ratio: counter; latency: samples).
    u64 bad = 0;    ///< Budget-consuming events (latency: hot windows).

    /** Ratio kinds: achieved good fraction (1.0 on zero events).
     *  Latency kinds: the measured quantile in ms (0 when the
     *  histogram is absent or empty). */
    double attainment = 1.0;

    /** Error budget. Ratio kinds count events; latency kinds count
     *  window-budget units (one per window with traffic). */
    double budgetAllowed = 0.0;
    double budgetConsumed = 0.0;
    double budgetRemaining = 0.0;
    bool met = true; ///< Exactly-exhausted budgets still meet the SLO.

    double shortBurn = 0.0; ///< Mean burn over the last shortWindows.
    double longBurn = 0.0;  ///< Mean burn over the last longWindows.
    bool burning = false;   ///< Both lookbacks at/over the threshold.

    std::vector<double> burnByWindow;     ///< Aligned to series windows.
    std::vector<SimTime> breachWindows;   ///< Window starts that breached.
};

/**
 * Evaluate every spec against a windowed series plus the run-total
 * snapshot. When `recorder` is non-null, each breach window records
 * one SloBreach event (tier Server, ok=false, detail = spec index,
 * attempt = window index, start/duration = the window) under a fresh
 * deterministic trace per breaching SLO: the first breach is the
 * trace's root span, later ones are its children.
 */
std::vector<SloStatus> evaluateSlos(const std::vector<SloSpec> &specs,
                                    const TimeSeries &series,
                                    const MetricsSnapshot &total,
                                    FlightRecorder *recorder = nullptr);

/**
 * The fleet's standing objectives, phrased over metrics every fleet
 * run publishes: query availability and staleness, delivery
 * integrity, and end-to-end serve p90 latency. Targets are set with
 * headroom over the healthy small-fleet baseline so only injected
 * incidents (outage storms, shed squeezes, chaos corruption) burn
 * the budgets.
 */
std::vector<SloSpec> defaultFleetSlos();

} // namespace pc::obs::health

#endif // PC_OBS_SLO_H
