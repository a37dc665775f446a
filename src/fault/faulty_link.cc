#include "fault/faulty_link.h"

#include <cmath>

#include "util/logging.h"

namespace pc::fault {

namespace {

/** Sum of the latency-counting (pre-tail) segment durations. */
SimTime
preTailLatency(const radio::TransferResult &res)
{
    SimTime t = 0;
    for (const auto &seg : res.segments) {
        if (seg.label != "tail")
            t += seg.duration;
    }
    return t;
}

} // namespace

ExchangeOutcome
FaultyLink::attempt(SimTime now, Bytes uplinkBytes, Bytes downlinkBytes,
                    SimTime serverTime)
{
    ExchangeOutcome out;

    if (plan_ && plan_->inOutage(now)) {
        // No signal: the radio searches, finds nothing, gives up. The
        // link never connects, so its tail/wakeup state is untouched.
        out.ok = false;
        out.noCoverage = true;
        plan_->noteOutageAttempt();
        const auto &cfg = link_.config();
        const SimTime probe = plan_->config().radio.noCoverageProbe;
        if (probe > 0) {
            out.xfer.segments.push_back(
                {"no-coverage", probe, cfg.wakeupPower});
            out.xfer.latency = probe;
            out.xfer.radioEnergy = energyOver(cfg.wakeupPower, probe);
        }
        return out;
    }

    radio::TransferResult full =
        link_.model(now, uplinkBytes, downlinkBytes, serverTime);

    if (plan_ && plan_->drawExchangeFailure()) {
        // Truncate the exchange at the drawn failure point, stall while
        // the stack notices, then drop into the tail.
        out.ok = false;
        out.failed = true;
        const auto &cfg = link_.config();
        const SimTime cut = SimTime(
            std::llround(double(preTailLatency(full)) *
                         plan_->drawFailurePoint()));
        // Cut the modelled timeline in place: its buffer already has
        // room for the stall and the tail.
        auto &segs = full.segments;
        std::size_t kept = 0;
        SimTime used = 0;
        full.latency = 0;
        full.radioEnergy = 0;
        for (const auto &seg : segs) {
            if (seg.label == "tail")
                break;
            const SimTime take =
                std::min<SimTime>(seg.duration, cut - used);
            if (take <= 0)
                break;
            segs[kept++] = {seg.label, take, seg.power};
            full.latency += take;
            full.radioEnergy += energyOver(seg.power, take);
            used += take;
        }
        segs.resize(kept);
        const SimTime stall = plan_->config().radio.failureStall;
        if (stall > 0) {
            segs.push_back({"stall", stall, cfg.activePower});
            full.latency += stall;
            full.radioEnergy += energyOver(cfg.activePower, stall);
        }
        if (cfg.tailDuration > 0) {
            segs.push_back({"tail", cfg.tailDuration, cfg.tailPower});
            full.radioEnergy +=
                energyOver(cfg.tailPower, cfg.tailDuration);
        }
        link_.commit(now, full);
        out.xfer = std::move(full);
        return out;
    }

    if (plan_ && plan_->drawLatencySpike()) {
        // Congestion: stretch the exchange by (factor - 1) x its
        // pre-tail latency at connected-idle power, before the tail.
        out.latencySpike = true;
        const auto &cfg = link_.config();
        const double factor = plan_->config().radio.latencySpikeFactor;
        const SimTime extra = SimTime(
            std::llround(double(preTailLatency(full)) * (factor - 1.0)));
        if (extra > 0) {
            radio::PowerSegment congestion{"congestion", extra,
                                           cfg.tailPower};
            // Keep the tail last in the timeline.
            auto it = full.segments.end();
            if (!full.segments.empty() &&
                full.segments.back().label == "tail")
                --it;
            full.segments.insert(it, congestion);
            full.latency += extra;
            full.radioEnergy += energyOver(cfg.tailPower, extra);
        }
    }

    link_.commit(now, full);
    out.xfer = std::move(full);
    return out;
}

} // namespace pc::fault
