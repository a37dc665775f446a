#include "radio/link.h"

#include <cmath>

#include "util/logging.h"

namespace pc::radio {

LinkConfig
threeGConfig()
{
    // Calibrated so that a typical mobile search exchange (≈1 KB up,
    // ≈100 KB result page down, ≈250 ms server time) lands near the
    // paper's measured ≈6 s — 16x the 378 ms PocketSearch hit path.
    LinkConfig cfg;
    cfg.name = "3g";
    cfg.wakeupLatency = fromMillis(1800);
    cfg.wakeupPower = 500.0;
    cfg.rtt = fromMillis(500);
    cfg.handshakeRounds = 5;
    cfg.uplinkBps = 300e3;
    cfg.downlinkBps = 800e3;
    cfg.activePower = 600.0;
    cfg.tailDuration = fromMillis(2500);
    cfg.tailPower = 400.0;
    cfg.idlePower = 10.0;
    return cfg;
}

LinkConfig
edgeConfig()
{
    // EDGE: ~25x the PocketSearch hit path (paper Figure 15a), dominated
    // by very high RTT and low throughput.
    LinkConfig cfg;
    cfg.name = "edge";
    cfg.wakeupLatency = fromMillis(2000);
    cfg.wakeupPower = 450.0;
    cfg.rtt = fromMillis(750);
    cfg.handshakeRounds = 5;
    cfg.uplinkBps = 100e3;
    cfg.downlinkBps = 280e3;
    cfg.activePower = 550.0;
    cfg.tailDuration = fromMillis(3000);
    cfg.tailPower = 350.0;
    cfg.idlePower = 8.0;
    return cfg;
}

LinkConfig
wifiConfig()
{
    // 802.11g: "slightly higher than 2 seconds" (paper), ~7x the hit
    // path. Includes the power-save/association exit the paper notes
    // makes WiFi not instantly available in practice.
    LinkConfig cfg;
    cfg.name = "wifi";
    cfg.wakeupLatency = fromMillis(1200);
    cfg.wakeupPower = 700.0;
    cfg.rtt = fromMillis(140);
    cfg.handshakeRounds = 5;
    cfg.uplinkBps = 2e6;
    cfg.downlinkBps = 4e6;
    cfg.activePower = 750.0;
    cfg.tailDuration = fromMillis(500);
    cfg.tailPower = 300.0;
    cfg.idlePower = 30.0;
    return cfg;
}

SimTime
transferTime(Bytes bytes, double bps)
{
    pc_assert(bps > 0.0, "link rate must be positive");
    return SimTime(std::llround(double(bytes) * 8.0 / bps *
                                double(kSecond)));
}

RadioLink::RadioLink(const LinkConfig &cfg)
    : cfg_(cfg)
{
}

bool
RadioLink::needsWakeup(SimTime now) const
{
    return readyUntil_ < 0 || now > readyUntil_;
}

TransferResult
RadioLink::request(SimTime now, Bytes uplinkBytes, Bytes downlinkBytes,
                   SimTime serverTime)
{
    TransferResult res = model(now, uplinkBytes, downlinkBytes, serverTime);
    commit(now, res);
    return res;
}

void
RadioLink::commit(SimTime now, const TransferResult &res)
{
    if (needsWakeup(now))
        ++wakeups_;
    readyUntil_ = now + res.latency + cfg_.tailDuration;
    totalEnergy_ += res.radioEnergy;
    ++requests_;
    if (res.latency > 0)
        busyNs_ += u64(res.latency);
}

TransferResult
RadioLink::model(SimTime now, Bytes uplinkBytes, Bytes downlinkBytes,
                 SimTime serverTime) const
{
    TransferResult res;
    // Reserved for the fault layer's extra segment too, so a faulted
    // attempt edits this timeline in place.
    res.segments.reserve(kMaxExchangeSegments);
    auto push = [&](std::string_view label, SimTime dur, MilliWatts power,
                    bool counts_latency) {
        if (dur <= 0)
            return;
        res.segments.push_back({label, dur, power});
        res.radioEnergy += energyOver(power, dur);
        if (counts_latency)
            res.latency += dur;
    };

    if (needsWakeup(now))
        push("wakeup", cfg_.wakeupLatency, cfg_.wakeupPower, true);

    // Connection establishment: DNS, TCP, HTTP request round trips. The
    // final round's downstream leg is when the first response byte lands,
    // so all rounds count fully toward latency.
    push("handshake", SimTime(cfg_.handshakeRounds) * cfg_.rtt,
         cfg_.activePower, true);

    push("uplink", transferTime(uplinkBytes, cfg_.uplinkBps),
         cfg_.activePower, true);

    // The radio stays connected (lower activity) while the server thinks.
    push("server", serverTime, cfg_.tailPower, true);

    push("downlink", transferTime(downlinkBytes, cfg_.downlinkBps),
         cfg_.activePower, true);

    // Post-exchange high-power tail; costs energy but not user latency.
    push("tail", cfg_.tailDuration, cfg_.tailPower, false);

    return res;
}

} // namespace pc::radio
