#include "obs/slo.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace pc::obs::health {

namespace {

/** Mean of the last `n` entries (all of them when fewer); 0 on empty. */
double
meanTail(const std::vector<double> &v, std::size_t end, std::size_t n)
{
    if (end == 0 || n == 0)
        return 0.0;
    const std::size_t take = std::min(n, end);
    double s = 0.0;
    for (std::size_t i = end - take; i < end; ++i)
        s += v[i];
    return s / double(take);
}

const HistogramSummary *
findHistogram(const MetricsSnapshot &snap, const std::string &name)
{
    for (const auto &h : snap.histograms) {
        if (h.name == name)
            return &h;
    }
    return nullptr;
}

/** Snap a requested quantile to the nearest the snapshot keeps. */
double
quantileOf(const HistogramSummary &h, double q)
{
    if (q <= 0.7)
        return h.p50;
    if (q <= 0.95)
        return h.p90;
    return h.p99;
}

bool
isRatioKind(SloKind k)
{
    return k != SloKind::LatencyQuantile;
}

} // namespace

const char *
sloKindName(SloKind k)
{
    switch (k) {
    case SloKind::LatencyQuantile:
        return "latency_quantile";
    case SloKind::Availability:
        return "availability";
    case SloKind::Staleness:
        return "staleness";
    case SloKind::CorruptionRate:
        return "corruption_rate";
    }
    return "unknown";
}

std::vector<SloStatus>
evaluateSlos(const std::vector<SloSpec> &specs, const TimeSeries &series,
             const MetricsSnapshot &total, FlightRecorder *recorder)
{
    const auto &wins = series.windows();

    std::vector<SloStatus> out;
    out.reserve(specs.size());
    for (std::size_t si = 0; si < specs.size(); ++si) {
        const SloSpec &spec = specs[si];
        SloStatus st;
        st.spec = spec;

        const std::vector<double> ev =
            series.counterSeries(spec.eventCounter);
        std::vector<double> burns(wins.size(), 0.0);

        if (isRatioKind(spec.kind)) {
            const std::vector<double> bad =
                series.counterSeries(spec.badCounter);
            const double unavail = 1.0 - spec.objective;
            pc_assert(unavail > 0.0,
                      "SloSpec: ratio objective must be < 1");
            for (std::size_t i = 0; i < wins.size(); ++i) {
                if (ev[i] > 0.0)
                    burns[i] = (bad[i] / ev[i]) / unavail;
            }
            st.events = total.counterValue(spec.eventCounter);
            st.bad = total.counterValue(spec.badCounter);
            st.attainment =
                st.events ? 1.0 - double(st.bad) / double(st.events)
                          : 1.0;
            st.budgetAllowed = unavail * double(st.events);
            st.budgetConsumed = double(st.bad);
        } else {
            const std::vector<double> mass =
                series.accumSeries(spec.histogram + ".sum");
            if (spec.meanBudgetMs > 0.0) {
                for (std::size_t i = 0; i < wins.size(); ++i) {
                    if (ev[i] > 0.0)
                        burns[i] =
                            (mass[i] / ev[i]) / spec.meanBudgetMs;
                }
            }
            const HistogramSummary *h =
                findHistogram(total, spec.histogram);
            st.events = h ? h->count : 0;
            st.attainment =
                (h && h->count) ? quantileOf(*h, spec.quantile) : 0.0;
            // Latency budgets count window units: each window with
            // traffic grants one budget unit, burned at its rate.
            for (std::size_t i = 0; i < wins.size(); ++i) {
                if (ev[i] > 0.0) {
                    st.budgetAllowed += 1.0;
                    st.budgetConsumed += burns[i];
                    if (burns[i] > 1.0)
                        ++st.bad;
                }
            }
        }

        // Exact exhaustion still meets the objective; the epsilon
        // absorbs the (1-objective)*events float rounding.
        st.met = st.budgetConsumed <= st.budgetAllowed + 1e-9;
        if (spec.kind == SloKind::LatencyQuantile && st.events)
            st.met = st.attainment <= spec.targetMs + 1e-9;
        st.budgetRemaining =
            std::max(0.0, st.budgetAllowed - st.budgetConsumed);

        st.burnByWindow = burns;
        st.shortBurn = meanTail(burns, burns.size(), spec.shortWindows);
        st.longBurn = meanTail(burns, burns.size(), spec.longWindows);
        st.burning = !burns.empty() &&
                     st.shortBurn >= spec.burnThreshold &&
                     st.longBurn >= spec.burnThreshold;

        // A window breaches when both lookbacks ending at it are at
        // or over the threshold — the standard multi-window rule, so
        // one anomalous window amid quiet neighbours doesn't page.
        std::vector<std::size_t> breachIdx;
        for (std::size_t i = 0; i < burns.size(); ++i) {
            const double s = meanTail(burns, i + 1, spec.shortWindows);
            const double l = meanTail(burns, i + 1, spec.longWindows);
            if (s >= spec.burnThreshold && l >= spec.burnThreshold) {
                breachIdx.push_back(i);
                st.breachWindows.push_back(wins[i].start);
            }
        }

        if (recorder && !breachIdx.empty()) {
            recorder->openTrace();
            for (const std::size_t i : breachIdx)
                recorder->onEvent(
                    {.tier = SyncTier::Server, .stage = SyncStage::SloBreach,
                     .ok = false, .attempt = u32(i), .detail = si,
                     .start = wins[i].start, .duration = wins[i].width});
            recorder->closeTrace();
        }

        out.push_back(std::move(st));
    }
    return out;
}

std::vector<SloSpec>
defaultFleetSlos()
{
    std::vector<SloSpec> specs;

    SloSpec avail;
    avail.name = "query_availability";
    avail.kind = SloKind::Availability;
    avail.objective = 0.90;
    avail.eventCounter = "device.queries";
    avail.badCounter = "device.degraded.serves";
    specs.push_back(avail);

    SloSpec fresh;
    fresh.name = "serve_freshness";
    fresh.kind = SloKind::Staleness;
    fresh.objective = 0.95;
    fresh.eventCounter = "device.queries";
    fresh.badCounter = "device.degraded.stale";
    specs.push_back(fresh);

    SloSpec integrity;
    integrity.name = "delivery_integrity";
    integrity.kind = SloKind::CorruptionRate;
    integrity.objective = 0.995;
    integrity.eventCounter = "device.radio.attempts";
    integrity.badCounter = "device.sync.corrupt_delta";
    specs.push_back(integrity);

    // Every fleet serve — hit, miss, degraded — records its latency
    // under the pocket path, so this is the user-facing p90.
    SloSpec lat;
    lat.name = "serve_latency_p90";
    lat.kind = SloKind::LatencyQuantile;
    lat.histogram = "device.latency_ms.pocket";
    lat.quantile = 0.9;
    lat.targetMs = 12000.0;
    lat.eventCounter = "device.queries";
    lat.meanBudgetMs = 4000.0;
    specs.push_back(lat);

    return specs;
}

} // namespace pc::obs::health
