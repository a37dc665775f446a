/**
 * @file
 * Cellular/WiFi radio link models.
 *
 * The paper's latency and energy story rests on three radio facts
 * (Sections 1 and 6.1): (1) a radio needs 1.5-2 s to wake from standby
 * even when already associated with the tower, (2) mobile exchanges are
 * small, so round-trip latency — not throughput — dominates, and (3) an
 * active radio adds hundreds of mW on top of the phone's base power, and
 * lingers in a high-power "tail" state after the exchange.
 *
 * RadioLink models one request/response exchange as a sequence of timed
 * power segments: optional wake-up ramp, handshake round trips, uplink
 * transfer, server think time, downlink transfer, then a tail. Segments
 * feed both the energy integration (Figure 15b) and the power traces of
 * Figure 16.
 */

#ifndef PC_RADIO_LINK_H
#define PC_RADIO_LINK_H

#include <string>
#include <string_view>
#include <vector>

#include "util/types.h"

namespace pc::radio {

/** One constant-power interval of radio activity. */
struct PowerSegment
{
    /**
     * e.g. "wakeup", "handshake", "downlink", "tail". Always a view of
     * a static string literal, so segments copy without allocating and
     * a label outlives every timeline that holds it.
     */
    std::string_view label;
    SimTime duration;    ///< Length of the interval.
    MilliWatts power;    ///< Radio power over the interval.

    bool operator==(const PowerSegment &) const = default;
};

/**
 * Most segments one exchange attempt's timeline holds: the six phases
 * of RadioLink::model (wakeup, handshake, uplink, server, downlink,
 * tail) plus the one the fault layer adds (congestion before the tail,
 * or the stall of an exchange cut short).
 */
inline constexpr std::size_t kMaxExchangeSegments = 7;

/** Outcome of one modelled exchange. */
struct TransferResult
{
    SimTime latency = 0;          ///< Wall time until the response body
                                  ///< has fully arrived (excludes tail).
    MicroJoules radioEnergy = 0;  ///< Radio energy including the tail.
    std::vector<PowerSegment> segments; ///< Full power timeline.
};

/** Static parameters of one link technology. */
struct LinkConfig
{
    std::string name = "3g";
    SimTime wakeupLatency = fromMillis(1800); ///< Standby -> active ramp.
    MilliWatts wakeupPower = 500.0;           ///< Power during the ramp.
    SimTime rtt = fromMillis(500);            ///< One round trip.
    unsigned handshakeRounds = 4;             ///< DNS+TCP+HTTP rounds.
    double uplinkBps = 300e3;                 ///< Payload uplink bit/s.
    double downlinkBps = 800e3;               ///< Payload downlink bit/s.
    MilliWatts activePower = 600.0;           ///< Radio power while busy.
    SimTime tailDuration = fromMillis(2500);  ///< High-power tail after
                                              ///< the exchange (3G DCH/FACH).
    MilliWatts tailPower = 400.0;             ///< Power during the tail.
    MilliWatts idlePower = 10.0;              ///< Paging/standby power.
};

/** The paper's three measured links (Xperia X1a on AT&T, Section 6.1). */
LinkConfig threeGConfig();
LinkConfig edgeConfig();
LinkConfig wifiConfig();

/**
 * Stateful radio link. Keeps track of when it was last active so that
 * back-to-back requests inside the tail window skip the wake-up ramp —
 * the effect visible in the paper's Figure 16 10-query trace.
 */
class RadioLink
{
  public:
    explicit RadioLink(const LinkConfig &cfg);

    /** Technology name. */
    const std::string &name() const { return cfg_.name; }

    /** Configuration. */
    const LinkConfig &config() const { return cfg_; }

    /**
     * Model one request/response exchange.
     *
     * @param now Simulated start time of the request.
     * @param uplinkBytes Request payload size.
     * @param downlinkBytes Response payload size.
     * @param serverTime Server-side processing time.
     * @return Latency/energy/power-timeline of the exchange.
     */
    TransferResult request(SimTime now, Bytes uplinkBytes,
                           Bytes downlinkBytes, SimTime serverTime);

    /**
     * Model an exchange without committing it to link state. The fault
     * layer uses this to truncate an exchange at the point where an
     * injected failure kills it, then commits the partial result.
     */
    TransferResult model(SimTime now, Bytes uplinkBytes,
                         Bytes downlinkBytes, SimTime serverTime) const;

    /**
     * Commit a (possibly fault-modified) modelled exchange: charges its
     * energy and starts the post-exchange tail at `now + res.latency`.
     * `request` is exactly `model` followed by `commit`.
     */
    void commit(SimTime now, const TransferResult &res);

    /** Would a request at `now` need the wake-up ramp? */
    bool needsWakeup(SimTime now) const;

    /** Total radio energy across all requests so far. */
    MicroJoules totalEnergy() const { return totalEnergy_; }

    /**
     * Committed exchanges so far. This and the two totals below are
     * the link's own counts; a device mirrors them into its metrics
     * registry and health ledgers, so they only ever grow.
     */
    const u64 &requests() const { return requests_; }

    /** Committed exchanges that paid the wake-up ramp. */
    const u64 &wakeups() const { return wakeups_; }

    /**
     * Summed latency of committed exchanges (ns): the link's busy
     * time. Commit is the single choke point for radio activity —
     * query misses, community syncs and miss-queue drains all pass
     * through it, and fault-layer no-coverage probes (which never
     * commit) don't.
     */
    const u64 &busyNs() const { return busyNs_; }

  private:
    LinkConfig cfg_;
    SimTime readyUntil_ = -1; ///< End of the last tail; -1 = cold.
    MicroJoules totalEnergy_ = 0;
    u64 requests_ = 0;
    u64 wakeups_ = 0;
    u64 busyNs_ = 0;
};

/** Transfer time of `bytes` at `bps` (bits per second). */
SimTime transferTime(Bytes bytes, double bps);

} // namespace pc::radio

#endif // PC_RADIO_LINK_H
