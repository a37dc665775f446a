/**
 * @file
 * Fleet health observatory: utilization ledgers and the deterministic
 * bottleneck analyzer.
 *
 * Capacity questions ("what saturates first, and at how many times
 * today's load?") need two numbers per component that plain metrics
 * don't give directly: **busy time** (simulated time the component
 * spent serving) and **ops** (how many times it served). The
 * accountant is the ledger view of the device's event stream
 * (obs/events.h): it folds the same span, query-end, sync-stage and
 * drain records the Tracer and FlightRecorder read — no new timing
 * model on the device side, only re-aggregation:
 *
 *  - `health.device.cpu.*`        — probe + render + misc spans (one
 *                                   op per query), plus each Commit
 *                                   stage's apply duration;
 *  - `health.device.flash.*`      — fetch and stale-fetch spans;
 *  - `health.device.radio.backoff_ns` — idle time: query backoff
 *                                   spans plus sync Backoff stages;
 *  - `health.device.radio.<l>.*`  — per-link committed exchange
 *                                   latency and count (the link's own
 *                                   totals from commit(), mirrored by
 *                                   the device at each operation's
 *                                   exit, so query misses, community
 *                                   syncs, and miss-queue drains all
 *                                   count, and no-coverage probes —
 *                                   which never commit — don't);
 *  - `health.device.query.*` / `health.device.sync.*` — end-to-end
 *    pipeline ledgers: query-end latencies; sync FrameDelivery
 *    durations plus the Commit duration, one op per Abort, Reject or
 *    Commit (NoVersion never reached the device), bytes on Commit,
 *    and each drain's radio time and synced count. Kept out of the
 *    bottleneck ranking because their mass double-counts the
 *    per-component ledgers above;
 *  - `health.server.*`            — modeled service demand on the
 *    cloud tier (constants below), because the simulator charges the
 *    server's real work to wall clocks that are deliberately excluded
 *    from byte-gated artifacts.
 *
 * The ledgers are ordinary registry counters, so they flow through
 * per-month snapshots, FleetCollector's device-index-ordered fold,
 * and TimeSeries windows like every other metric — per-window
 * utilization is busy_delta / window for free, and artifacts stay
 * byte-identical at any thread count.
 *
 * Cost contract (mirrors the flight recorder): detached accounting is
 * the stream's one any-consumer test; attached accounting is
 * cached-handle integer adds — zero allocations, zero RNG draws, zero
 * behaviour change on the hot path (gated by health_test's neutrality
 * suite).
 *
 * The analyzer turns one fleet snapshot into a ranked component
 * table: utilization = busy / capacity (device components get
 * devices x horizon, server components get the horizon — one shared
 * service), per-query demand D_i = busy / queries, service time
 * S_i = busy / ops. The bottleneck is the highest-utilization ranked
 * component and its headroom multiplier is 1 / utilization — "the
 * radio saturates first, at ~N x today's load".
 */

#ifndef PC_OBS_HEALTH_H
#define PC_OBS_HEALTH_H

#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "obs/causal.h"
#include "obs/metrics.h"
#include "obs/slo.h"
#include "obs/trace.h"
#include "util/types.h"

namespace pc::obs::health {

/**
 * Modeled cloud-tier service demands, in simulated ns. The builder's
 * measured wall clocks are real-thread timings and therefore banned
 * from deterministic artifacts; these constants translate the
 * server's deterministic op counts (records ingested, batches
 * dispatched, delta ops served) into simulated busy time instead.
 * They approximate the measured build throughput of the sharded
 * builder at paper scale; the capacity-planning layer (ROADMAP) will
 * cross-validate them.
 */
constexpr SimTime kServerPerRecordNs = 2'000;
constexpr SimTime kServerPerBatchNs = 20'000;
constexpr SimTime kServerSyncBaseNs = 5'000'000;
constexpr SimTime kServerPerDeltaOpNs = 10'000;

/** Device stream record: one miss-queue drain. */
struct DrainRecord
{
    u64 synced;    ///< Queued misses fetched.
    SimTime radio; ///< Radio time spent.
};

/**
 * Per-device busy-time/demand ledger. Constructed against the
 * device's registry (cold path: registers every handle up front);
 * the device's event stream then hands it every record. Radio
 * ledgers are registered here but fed by the device, which mirrors
 * each link's busy time and committed exchanges into the
 * radioLedger() handles, so every committed exchange counts exactly
 * once no matter which pipeline drove it.
 */
class HealthAccountant
{
  public:
    explicit HealthAccountant(MetricRegistry &reg);

    /** Fold one component span (radio spans ride the link ledgers). */
    void onEvent(const SpanRecord &r);

    /** Fold one query end: pipeline busy time, one cpu op. */
    void onEvent(const QueryRecord &q);

    /** Fold one sync stage (server-tier stages carry no device time). */
    void onEvent(const SyncEvent &ev);

    /** Fold one miss-queue drain. */
    void onEvent(const DrainRecord &r);

    /**
     * Busy/ops counter pair for radio link `link` (e.g. "3g"),
     * registered as health.device.radio.<link>.{busy_ns,ops}. The
     * device mirrors the link's totals into them.
     */
    std::pair<Counter *, Counter *>
    radioLedger(const std::string &link);

  private:
    MetricRegistry *reg_;
    Counter *cpuBusy_;
    Counter *cpuOps_;
    Counter *flashBusy_;
    Counter *flashOps_;
    Counter *backoffIdle_;
    Counter *queryBusy_;
    Counter *queryOps_;
    Counter *syncBusy_;
    Counter *syncOps_;
    Counter *syncBytes_;
    u64 frameBytes_ = 0; ///< Wire size of the sync's delivered frame.
};

/** One component row of the health analysis. */
struct ComponentHealth
{
    std::string name; ///< e.g. "device.radio.3g", "server.shard.2".
    u64 busyNs = 0;
    u64 ops = 0;
    double utilization = 0.0; ///< busy / capacity.
    double serviceNs = 0.0;   ///< busy / ops (S_i).
    double demandNs = 0.0;    ///< busy / fleet queries (D_i).
};

/** Ranked components + the saturation verdict for one fleet run. */
struct HealthAnalysis
{
    std::size_t devices = 0;
    SimTime horizon = 0; ///< Simulated run length (per device).
    u64 queries = 0;

    /** Utilization-ranked (desc, name-asc ties), rank = index + 1. */
    std::vector<ComponentHealth> ranked;
    /** End-to-end pipeline ledgers (query/sync): reported for demand,
     *  excluded from ranking — their mass double-counts components. */
    std::vector<ComponentHealth> pipelines;

    std::string bottleneck;    ///< Highest-utilization component.
    double maxUtilization = 0.0;
    double headroom = 0.0;     ///< 1 / maxUtilization (0 if idle).

    std::vector<SloStatus> slos;
};

/**
 * Scan `snap` for health.* ledgers and rank them. Deterministic:
 * reads only counters (name-sorted in the snapshot), never gauges or
 * wall clocks.
 */
HealthAnalysis analyzeHealth(const MetricsSnapshot &snap,
                             std::size_t devices, SimTime horizon);

/**
 * The {"health":...} artifact: named scenarios, each an analysis.
 * Scenario order is the emission order (deterministic by
 * construction); bench_diff flattens it via flattenHealthReport.
 */
struct HealthReport
{
    std::string id = "fleet_health";
    std::vector<std::pair<std::string, std::string>> notes;
    std::vector<std::pair<std::string, HealthAnalysis>> scenarios;
};

/** Serialize the artifact (byte-deterministic, pretty-printed). */
void writeHealthJson(std::ostream &os, const HealthReport &r);

/** Write BENCH_<id>.json under BenchReport::outputDir(). @return the
 *  path written, or empty on I/O failure. */
std::string writeHealthFile(const HealthReport &r);

} // namespace pc::obs::health

#endif // PC_OBS_HEALTH_H
