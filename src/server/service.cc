#include "server/service.h"

#include "obs/events.h"
#include "obs/health.h"
#include "util/logging.h"
#include "util/strings.h"

namespace pc::server {

CloudUpdateService::CloudUpdateService(
    const workload::QueryUniverse &universe, const ServiceConfig &cfg)
    : universe_(universe), cfg_(cfg), builder_(universe, cfg.build)
{
    pc_assert(cfg_.maxVersions >= 1, "history needs at least one slot");
}

const CommunityModel &
CloudUpdateService::ingest(const workload::SearchLog &log)
{
    const u64 version = latest_ + 1;
    CommunityModel m = builder_.build(log, version, cfg_.policy);
    auto [it, inserted] = history_.emplace(version, std::move(m));
    pc_assert(inserted, "model version already published");
    latest_ = version;
    while (history_.size() > cfg_.maxVersions)
        history_.erase(history_.begin());
    deltas_.clear();
    publishBuildMetrics(it->second);
    return it->second;
}

const CommunityModel *
CloudUpdateService::findModel(u64 version) const
{
    const auto it = history_.find(version);
    return it == history_.end() ? nullptr : &it->second;
}

const CommunityModel &
CloudUpdateService::model(u64 version) const
{
    const CommunityModel *m = findModel(version);
    pc_assert(m != nullptr, "model version not in history");
    return *m;
}

std::optional<core::CommunityDelta>
CloudUpdateService::tryMakeDelta(u64 from_version, u64 to_version) const
{
    if (to_version == 0)
        to_version = latest_;
    const CommunityModel *to = findModel(to_version);
    if (to == nullptr)
        return std::nullopt;
    if (from_version == to_version) {
        core::CommunityDelta d;
        d.fromVersion = from_version;
        d.toVersion = to_version;
        return d;
    }
    const CommunityModel *from = findModel(from_version);
    if (from_version == 0 || from == nullptr) {
        // Never synced, or the device's version fell off the history
        // window: full install (diff against the empty model).
        const core::CacheContents empty;
        return core::diffContents(empty, to->contents, 0, to_version);
    }
    return core::diffContents(from->contents, to->contents,
                              from_version, to_version);
}

core::CommunityDelta
CloudUpdateService::makeDelta(u64 from_version, u64 to_version) const
{
    auto d = tryMakeDelta(from_version, to_version);
    pc_assert(d.has_value(), "delta target version not in history");
    return *std::move(d);
}

const core::CommunityDelta *
CloudUpdateService::servedDelta(u64 from_version, u64 to_version) const
{
    if (to_version == 0)
        to_version = latest_;
    if (!hasVersion(to_version))
        return nullptr;
    // tryMakeDelta diffs an off-window base exactly as base 0.
    if (!hasVersion(from_version))
        from_version = 0;
    const std::pair key{from_version, to_version};
    const std::lock_guard lock(deltasMu_);
    auto it = deltas_.find(key);
    if (it == deltas_.end())
        it = deltas_.emplace(key, makeDelta(from_version, to_version)).first;
    return &it->second;
}

device::MobileDevice::CommunitySyncResult
CloudUpdateService::syncDevice(device::MobileDevice &dev,
                               u64 target_version, device::ServePath path)
{
    SyncAccounting acct;
    const auto res = syncDetached(dev, &acct, target_version, path);
    accountSync(acct);
    return res;
}

device::MobileDevice::CommunitySyncResult
CloudUpdateService::syncDetached(device::MobileDevice &dev,
                                 SyncAccounting *acct, u64 target_version,
                                 device::ServePath path) const
{
    if (target_version == 0)
        target_version = latest_;
    // Server-tier stages land in the device's event stream, after the
    // request that opens the sync's chain.
    const obs::DeviceEvents &events = dev.events();
    const SimTime now = dev.now();
    u64 from_version = dev.communityVersion();
    events.emit(obs::SyncEvent{.stage = obs::SyncStage::SyncRequest,
                               .fromVersion = from_version,
                               .toVersion = from_version,
                               .start = now});
    bool escalated = false;
    if (from_version != 0 && dev.needsFullInstall()) {
        // The device's incremental syncs keep dying corrupt/rejected;
        // stop diffing against state we evidently disagree about and
        // ship the whole target model.
        from_version = 0;
        escalated = true;
    }
    const core::CommunityDelta *delta =
        servedDelta(from_version, target_version);
    events.emit(obs::SyncEvent{
        .tier = obs::SyncTier::Server, .stage = obs::SyncStage::VersionLookup,
        .ok = delta != nullptr, .fromVersion = from_version,
        .toVersion = target_version, .detail = history_.size(), .start = now});
    if (escalated)
        events.emit(obs::SyncEvent{
            .tier = obs::SyncTier::Server, .stage = obs::SyncStage::Escalate,
            .fromVersion = dev.communityVersion(), .toVersion = target_version,
            .detail = dev.badDeltaStreak(), .start = now});
    if (delta == nullptr) {
        // Target version off the window (or nothing published):
        // typed failure, no radio traffic, device untouched.
        device::MobileDevice::CommunitySyncResult res;
        res.fromVersion = dev.communityVersion();
        res.toVersion = dev.communityVersion();
        if (acct)
            acct->noVersion = true;
        events.emit(obs::SyncEvent{
            .tier = obs::SyncTier::Server, .stage = obs::SyncStage::NoVersion,
            .ok = false, .fromVersion = from_version,
            .toVersion = target_version, .start = now});
        return res;
    }
    // Op counts only — computing wire bytes here would allocate, and
    // the delivery events carry them anyway.
    events.emit(obs::SyncEvent{
        .tier = obs::SyncTier::Server, .stage = obs::SyncStage::DeltaBuild,
        .fromVersion = delta->fromVersion, .toVersion = delta->toVersion,
        .detail = delta->ops(), .start = now});
    const auto res = dev.syncCommunityUpdate(*delta, path);
    if (acct) {
        acct->ok = res.ok;
        acct->deltaBytes = res.deltaBytes;
        acct->adds = delta->adds.size();
        acct->evicts = delta->evicts.size();
        acct->reranks = delta->reranks.size();
        acct->fullInstall = delta->fromVersion == 0;
        acct->rejected = res.rejected;
        acct->escalated = escalated;
        acct->corruptRetries = res.corruptRejected;
    }
    return res;
}

void
CloudUpdateService::accountSync(const SyncAccounting &acct)
{
    if (acct.shed) {
        registry_.counter("server.sync.shed").bump();
        // Shed syncs cost the sync pipeline nothing — that is the
        // whole point of admission control, and it is what lets a
        // shed-budget squeeze move the server bottleneck.
        return;
    }
    if (cfg_.healthAccounting) {
        // Modeled demand: base cost per admitted sync plus a per-op
        // cost for the delta the service actually served.
        const u64 ops = acct.adds + acct.evicts + acct.reranks;
        registry_.counter("health.server.sync.busy_ns")
            .bump(u64(obs::health::kServerSyncBaseNs) +
                  ops * u64(obs::health::kServerPerDeltaOpNs));
        registry_.counter("health.server.sync.ops").bump();
    }
    if (acct.corruptRetries > 0)
        registry_.counter("server.sync.corrupt_retries")
            .bump(acct.corruptRetries);
    if (acct.rejected)
        registry_.counter("server.sync.rejected").bump();
    if (acct.escalated)
        registry_.counter("server.deltas.escalated_full_installs")
            .bump();
    if (acct.noVersion)
        registry_.counter("server.sync.no_version").bump();
    if (acct.ok) {
        registry_.counter("server.syncs.ok").bump();
        registry_.counter("server.deltas.served").bump();
        registry_.counter("server.deltas.adds").bump(acct.adds);
        registry_.counter("server.deltas.evicts").bump(acct.evicts);
        registry_.counter("server.deltas.reranks").bump(acct.reranks);
        registry_.counter("server.deltas.bytes").bump(acct.deltaBytes);
        registry_.histogram("server.delta.bytes")
            .observe(double(acct.deltaBytes));
        if (acct.fullInstall)
            registry_.counter("server.deltas.full_installs").bump();
    } else {
        registry_.counter("server.syncs.failed").bump();
    }
}

void
CloudUpdateService::publishBuildMetrics(const CommunityModel &m)
{
    const BuildStats &st = m.stats;
    registry_.counter("server.ingest.builds").bump();
    registry_.counter("server.ingest.records").bump(st.records);
    registry_.counter("server.ingest.batches").bump(st.batches);
    if (st.skippedRecords > 0)
        registry_.counter("server.ingest.skipped_records")
            .bump(st.skippedRecords);
    registry_.gauge("server.model.version").set(double(m.version));
    registry_.gauge("server.model.pairs").set(double(st.distinctPairs));
    registry_.gauge("server.model.cached_pairs")
        .set(double(m.contents.pairs.size()));
    registry_.gauge("server.build.shards").set(double(st.shards));
    registry_.gauge("server.build.threads").set(double(st.threads));
    // Wall time depends on thread scheduling — a useful operator
    // signal, but never part of a byte-gated artifact.
    registry_.gauge("server.build.wall_ms").set(st.wallMs);
    if (st.wallMs > 0.0)
        registry_.gauge("server.ingest.records_per_s")
            .set(double(st.records) / (st.wallMs / 1e3));
    auto &shardRows = registry_.histogram("server.ingest.shard_rows");
    for (const auto &ss : st.shardStats)
        shardRows.observe(double(ss.rows));
    if (cfg_.healthAccounting) {
        // Modeled ingest demand from deterministic op counts: the
        // wall-clock gauges above are real-thread timings and cannot
        // feed a byte-gated ledger.
        registry_.counter("health.server.ingest.busy_ns")
            .bump(st.records * u64(obs::health::kServerPerRecordNs));
        registry_.counter("health.server.ingest.ops")
            .bump(st.records);
        registry_.counter("health.server.queue.busy_ns")
            .bump(st.batches * u64(obs::health::kServerPerBatchNs));
        registry_.counter("health.server.queue.ops").bump(st.batches);
        for (std::size_t i = 0; i < st.shardStats.size(); ++i) {
            const std::string base =
                strformat("health.server.shard.%zu", i);
            registry_.counter(base + ".busy_ns")
                .bump(st.shardStats[i].records *
                      u64(obs::health::kServerPerRecordNs));
            registry_.counter(base + ".ops")
                .bump(st.shardStats[i].records);
        }
    }
}

} // namespace pc::server
