#include "obs/health.h"

#include <algorithm>
#include <filesystem>
#include <fstream>

#include "obs/json.h"
#include "obs/report.h"
#include "util/logging.h"

namespace pc::obs::health {

namespace {

const char kPrefix[] = "health.";
const char kBusySuffix[] = ".busy_ns";

/** Pipeline ledgers: reported, never ranked (they re-count spans the
 *  per-component ledgers already hold). */
bool
isPipeline(const std::string &component)
{
    return component == "device.query" || component == "device.sync";
}

bool
endsWith(const std::string &s, const std::string &suffix)
{
    return s.size() >= suffix.size() &&
           s.compare(s.size() - suffix.size(), suffix.size(),
                     suffix) == 0;
}

} // namespace

HealthAccountant::HealthAccountant(MetricRegistry &reg) : reg_(&reg)
{
    cpuBusy_ = &reg.counter("health.device.cpu.busy_ns");
    cpuOps_ = &reg.counter("health.device.cpu.ops");
    flashBusy_ = &reg.counter("health.device.flash.busy_ns");
    flashOps_ = &reg.counter("health.device.flash.ops");
    backoffIdle_ = &reg.counter("health.device.radio.backoff_ns");
    queryBusy_ = &reg.counter("health.device.query.busy_ns");
    queryOps_ = &reg.counter("health.device.query.ops");
    syncBusy_ = &reg.counter("health.device.sync.busy_ns");
    syncOps_ = &reg.counter("health.device.sync.ops");
    syncBytes_ = &reg.counter("health.device.sync.bytes");
}

void
HealthAccountant::onEvent(const SpanRecord &r)
{
    // CPU = every span the device's own silicon serves; radio busy is
    // charged by RadioLink::commit, backoff is idle air time.
    const std::string_view name = r.name;
    if (name == "probe" || name == "render" || name == "misc") {
        cpuBusy_->bump(u64(r.duration));
    } else if (name == "fetch" || name == "stale-fetch") {
        flashBusy_->bump(u64(r.duration));
        flashOps_->bump();
    } else if (name == "backoff") {
        backoffIdle_->bump(u64(r.duration));
    }
}

void
HealthAccountant::onEvent(const QueryRecord &q)
{
    queryBusy_->bump(u64(std::max<SimTime>(0, q.latency)));
    queryOps_->bump();
    cpuOps_->bump();
}

void
HealthAccountant::onEvent(const SyncEvent &ev)
{
    const u64 dur = u64(std::max<SimTime>(0, ev.duration));
    switch (ev.stage) {
      case SyncStage::FrameDelivery:
        syncBusy_->bump(dur);
        frameBytes_ = ev.bytes;
        break;
      case SyncStage::Backoff:
        backoffIdle_->bump(dur);
        break;
      case SyncStage::Commit:
        // The apply is CPU work; a reject's rollback left the cache
        // untouched and is charged nowhere.
        syncBusy_->bump(dur);
        syncBytes_->bump(frameBytes_);
        if (dur > 0) {
            cpuBusy_->bump(dur);
            cpuOps_->bump();
        }
        [[fallthrough]];
      case SyncStage::Reject:
      case SyncStage::Abort:
        syncOps_->bump();
        break;
      default:
        break;
    }
}

void
HealthAccountant::onEvent(const DrainRecord &r)
{
    syncBusy_->bump(u64(std::max<SimTime>(0, r.radio)));
    syncOps_->bump(r.synced);
}

std::pair<Counter *, Counter *>
HealthAccountant::radioLedger(const std::string &link)
{
    const std::string base = "health.device.radio." + link;
    return {&reg_->counter(base + ".busy_ns"),
            &reg_->counter(base + ".ops")};
}

HealthAnalysis
analyzeHealth(const MetricsSnapshot &snap, std::size_t devices,
              SimTime horizon)
{
    pc_assert(horizon > 0, "analyzeHealth: non-positive horizon");
    HealthAnalysis out;
    out.devices = devices;
    out.horizon = horizon;
    out.queries = snap.counterValue("device.queries");

    for (const auto &[name, busy] : snap.counters) {
        if (name.rfind(kPrefix, 0) != 0 || !endsWith(name, kBusySuffix))
            continue;
        ComponentHealth c;
        c.name = name.substr(sizeof(kPrefix) - 1,
                             name.size() - (sizeof(kPrefix) - 1) -
                                 (sizeof(kBusySuffix) - 1));
        c.busyNs = busy;
        c.ops = snap.counterValue(std::string(kPrefix) + c.name +
                                  ".ops");
        // Device components replicate per device; server components
        // are one shared service ticking the same simulated horizon.
        const double capacity =
            c.name.rfind("device.", 0) == 0
                ? double(horizon) * double(std::max<std::size_t>(
                                        1, devices))
                : double(horizon);
        c.utilization = double(c.busyNs) / capacity;
        c.serviceNs = c.ops ? double(c.busyNs) / double(c.ops) : 0.0;
        c.demandNs = out.queries
                         ? double(c.busyNs) / double(out.queries)
                         : 0.0;
        (isPipeline(c.name) ? out.pipelines : out.ranked)
            .push_back(std::move(c));
    }

    std::sort(out.ranked.begin(), out.ranked.end(),
              [](const ComponentHealth &a, const ComponentHealth &b) {
                  if (a.utilization != b.utilization)
                      return a.utilization > b.utilization;
                  return a.name < b.name;
              });
    if (!out.ranked.empty() && out.ranked.front().utilization > 0.0) {
        out.bottleneck = out.ranked.front().name;
        out.maxUtilization = out.ranked.front().utilization;
        out.headroom = 1.0 / out.maxUtilization;
    }
    return out;
}

namespace {

void
writeComponent(JsonWriter &w, const ComponentHealth &c,
               std::size_t rank)
{
    w.beginObject();
    w.kv("name", c.name);
    if (rank)
        w.kv("rank", u64(rank));
    w.kv("busy_ns", c.busyNs);
    w.kv("ops", c.ops);
    w.kv("utilization", c.utilization);
    w.kv("service_ns", c.serviceNs);
    w.kv("demand_ns", c.demandNs);
    w.endObject();
}

void
writeSlo(JsonWriter &w, const SloStatus &st)
{
    w.beginObject();
    w.kv("name", st.spec.name);
    w.kv("kind", sloKindName(st.spec.kind));
    if (st.spec.kind == SloKind::LatencyQuantile) {
        w.kv("quantile", st.spec.quantile);
        w.kv("target_ms", st.spec.targetMs);
    } else {
        w.kv("objective", st.spec.objective);
    }
    w.kv("events", st.events);
    w.kv("bad", st.bad);
    w.kv("attainment", st.attainment);
    w.kv("budget_allowed", st.budgetAllowed);
    w.kv("budget_consumed", st.budgetConsumed);
    w.kv("budget_remaining", st.budgetRemaining);
    w.kv("met", u64(st.met));
    w.kv("short_burn", st.shortBurn);
    w.kv("long_burn", st.longBurn);
    w.kv("burning", u64(st.burning));
    w.kv("breaches", u64(st.breachWindows.size()));
    w.endObject();
}

void
writeAnalysis(JsonWriter &w, const HealthAnalysis &a)
{
    w.beginObject();
    w.kv("devices", u64(a.devices));
    w.kv("horizon_ns", a.horizon);
    w.kv("queries", a.queries);
    w.key("bottleneck");
    w.beginObject();
    w.kv("name", a.bottleneck);
    w.kv("utilization", a.maxUtilization);
    w.kv("headroom_x", a.headroom);
    w.endObject();
    w.key("components");
    w.beginArray();
    for (std::size_t i = 0; i < a.ranked.size(); ++i)
        writeComponent(w, a.ranked[i], i + 1);
    w.endArray();
    w.key("pipelines");
    w.beginArray();
    for (const ComponentHealth &c : a.pipelines)
        writeComponent(w, c, 0);
    w.endArray();
    w.key("slos");
    w.beginArray();
    for (const SloStatus &st : a.slos)
        writeSlo(w, st);
    w.endArray();
    w.endObject();
}

} // namespace

void
writeHealthJson(std::ostream &os, const HealthReport &r)
{
    JsonWriter w(os, /*pretty=*/true);
    w.beginObject();
    w.key("health");
    w.beginObject();
    w.kv("id", r.id);
    w.key("notes");
    w.beginObject();
    for (const auto &[k, v] : r.notes)
        w.kv(k, v);
    w.endObject();
    w.key("scenarios");
    w.beginObject();
    for (const auto &[name, analysis] : r.scenarios) {
        w.key(name);
        writeAnalysis(w, analysis);
    }
    w.endObject();
    w.endObject();
    w.endObject();
    os << '\n';
}

std::string
writeHealthFile(const HealthReport &r)
{
    const std::string dir = BenchReport::outputDir();
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    const std::string path = dir + "/BENCH_" + r.id + ".json";
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    if (!os)
        return std::string();
    writeHealthJson(os, r);
    os.flush();
    return os ? path : std::string();
}

} // namespace pc::obs::health
