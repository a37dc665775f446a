/**
 * @file
 * Seeded, deterministic fault injection for the radio and storage
 * models.
 *
 * The paper's argument is that the network is the slow, unreliable,
 * expensive part of mobile search (Sections 1, 6.1) — yet a perfect
 * RadioLink and a never-corrupting flash model cannot exercise any of
 * the behaviours that make a pocket cloudlet worth having when things
 * go wrong. A FaultPlan is the single source of injected adversity:
 *
 *  - coverage outages: alternating up/down intervals with exponential
 *    durations calibrated to a long-run outage share (subway tunnels,
 *    dead zones, airplane mode);
 *  - per-exchange failures: an exchange starts and dies mid-flight
 *    (dropped bearer, server 5xx, TCP reset), detected after a stall;
 *  - latency spikes: congestion multiplies an exchange's latency;
 *  - storage crashes: power dies after an armed number of payload
 *    bytes have been programmed, leaving torn files behind;
 *  - wear-correlated bit flips: reads of heavily erased blocks flip a
 *    bit with probability proportional to the block's erase count.
 *
 * Every draw comes from one seeded Rng, so a fixed seed reproduces an
 * entire faulty experiment bit for bit, and a disabled plan (all rates
 * zero) injects nothing and perturbs no existing numbers. The plan
 * also counts every fault it injects so experiments can prove that
 * retry/degradation counters account for all of them.
 */

#ifndef PC_FAULT_FAULT_PLAN_H
#define PC_FAULT_FAULT_PLAN_H

#include <optional>
#include <string>

#include "obs/metrics.h"
#include "util/rng.h"
#include "util/types.h"

namespace pc::fault {

/** Radio-side fault rates and shapes. */
struct RadioFaultConfig
{
    /** Probability that one exchange attempt dies mid-flight. */
    double exchangeFailureRate = 0.0;
    /** Long-run fraction of time spent without coverage. */
    double outageShare = 0.0;
    /** Mean duration of one coverage outage. */
    SimTime meanOutageDuration = 45 * kSecond;
    /** Probability that a successful exchange hits congestion. */
    double latencySpikeRate = 0.0;
    /**
     * Probability that a delivered downlink payload suffers a
     * single-bit flip (deep-fade demodulation error, buggy middlebox).
     * The exchange still reports success — only an integrity check on
     * the payload can catch it. 0 disables corruption.
     */
    double payloadCorruptRate = 0.0;
    /** Latency multiplier applied by a congestion spike. */
    double latencySpikeFactor = 4.0;
    /** Time the radio spends discovering there is no signal. */
    SimTime noCoverageProbe = fromMillis(800);
    /** Stall before a dead exchange is reported as failed. */
    SimTime failureStall = fromMillis(1500);
};

/** Storage-side fault rates. */
struct StorageFaultConfig
{
    /**
     * Probability that one read chunk suffers a single-bit flip, per
     * 1000 erases of the block it lives in (wear-correlated retention
     * loss). 0 disables flips.
     */
    double bitFlipPerReadPerKiloErase = 0.0;
};

/** Full fault-injection configuration. */
struct FaultConfig
{
    u64 seed = 1;
    RadioFaultConfig radio{};
    StorageFaultConfig storage{};
};

/** Counts of faults actually injected (ground truth for experiments). */
struct InjectedStats
{
    u64 outageAttempts = 0;    ///< Exchange attempts begun with no coverage.
    u64 exchangeFailures = 0;  ///< Exchanges killed mid-flight.
    u64 latencySpikes = 0;     ///< Exchanges slowed by congestion.
    u64 payloadCorruptions = 0; ///< Delivered payloads with a flipped bit.
    u64 bitFlips = 0;          ///< Bits flipped on storage reads.
    u64 crashes = 0;           ///< Power-loss events fired.

    bool operator==(const InjectedStats &) const = default;
};

/**
 * One deterministic schedule of radio and storage faults.
 *
 * A plan is attached to at most one device/store pair: draws are
 * consumed in call order, so sharing a plan between two devices would
 * entangle their fault streams (still deterministic, but no longer
 * independently reproducible).
 */
class FaultPlan
{
  public:
    explicit FaultPlan(const FaultConfig &cfg = {});

    /** Configuration. */
    const FaultConfig &config() const { return cfg_; }

    // -- Radio faults -----------------------------------------------------

    /**
     * Is the device inside a coverage outage at `now`? The outage
     * schedule advances lazily; query times must be nondecreasing
     * (simulated clocks only move forward).
     */
    bool inOutage(SimTime now);

    /** Draw: does this exchange attempt die mid-flight? (counted) */
    bool drawExchangeFailure();

    /** Draw: where in the exchange the failure hits, in (0, 1). */
    double drawFailurePoint();

    /** Draw: does this successful exchange hit a congestion spike? */
    bool drawLatencySpike();

    /**
     * Multiplicative jitter in [1-frac, 1+frac] for retry backoff.
     * Deterministic under the plan's seed.
     */
    double jitter(double frac);

    /**
     * In-flight corruption: with the configured per-delivery rate,
     * flip one uniformly chosen bit of the payload (counted). A
     * disabled rate consumes no randomness, so enabling corruption in
     * one experiment cannot perturb another's fault stream.
     * @return True if a bit was flipped.
     */
    bool maybeCorruptPayload(std::string &payload);

    /** Note an exchange attempt made during an outage (counted). */
    void noteOutageAttempt() { ++stats_.outageAttempts; }

    // -- Storage faults ---------------------------------------------------

    /**
     * Arm a power-loss crash: the supply dies after `bytes` more
     * payload bytes have been programmed through the attached store.
     */
    void armCrashAfterBytes(Bytes bytes);

    /** True once an armed crash has fired; writes are dead until reboot. */
    bool powerLost() const { return powerLost_; }

    /** True while a crash is armed and has not fired yet. */
    bool crashArmed() const { return crashArmed_; }

    /**
     * Consume crash budget for a program of `want` bytes; returns how
     * many bytes actually commit before the power dies (normally all
     * of them). Fires the crash, once, when the budget runs out.
     */
    Bytes programBudget(Bytes want);

    /** Power back on: clear the crash state and disarm. */
    void reboot();

    /**
     * Wear-correlated bit flip: with the configured per-kilo-erase
     * probability scaled by `blockErases`, flip one uniformly chosen
     * bit inside buf[from, from+len). Returns true if a bit flipped.
     */
    bool maybeFlipBit(std::string &buf, Bytes from, Bytes len,
                      u64 blockErases);

    /**
     * maybeFlipBit's draws without a buffer: the same chance, the same
     * bit pick and the same count, for a read whose bytes nobody looks
     * at. @return The flipped bit's index in [0, len*8), or nullopt.
     */
    std::optional<u64> drawBitFlip(Bytes len, u64 blockErases);

    // -- Observability ----------------------------------------------------

    /** Faults injected so far. */
    const InjectedStats &stats() const { return stats_; }

    /**
     * Raw RNG draws consumed so far. Draw-neutrality gate: a feature
     * that must not perturb the fault stream (e.g. trace recording)
     * leaves this count unchanged (bench_trace_overhead enforces it).
     */
    u64 rngDraws() const { return rng_.draws(); }

    /**
     * Fold the injected-fault ground truth into a registry (bumps the
     * "fault.*" counters by current values). Call once per experiment
     * phase — typically right before snapshotting.
     */
    void publishMetrics(obs::MetricRegistry &reg) const;

  private:
    /** Advance the outage schedule so it covers `now`. */
    void advanceOutageSchedule(SimTime now);

    FaultConfig cfg_;
    Rng rng_;
    InjectedStats stats_;

    // Outage schedule state (lazily generated forward).
    bool outageEnabled_ = false;
    bool inOutage_ = false;
    SimTime nextTransition_ = 0;
    SimTime meanUptime_ = 0;

    // Crash state.
    bool crashArmed_ = false;
    bool powerLost_ = false;
    Bytes crashBudget_ = 0;
};

} // namespace pc::fault

#endif // PC_FAULT_FAULT_PLAN_H
