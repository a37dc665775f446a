#include "device/mobile_device.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace pc::device {

const char *
servePathName(ServePath p)
{
    switch (p) {
      case ServePath::PocketSearch:
        return "PocketSearch";
      case ServePath::ThreeG:
        return "3G";
      case ServePath::Edge:
        return "Edge";
      case ServePath::Wifi:
        return "802.11g";
    }
    return "?";
}

std::string
servePathKey(ServePath p)
{
    switch (p) {
      case ServePath::PocketSearch:
        return "pocket";
      case ServePath::ThreeG:
        return "3g";
      case ServePath::Edge:
        return "edge";
      case ServePath::Wifi:
        return "wifi";
    }
    return "?";
}

MobileDevice::MobileDevice(const core::QueryUniverse &universe,
                           const DeviceConfig &cfg,
                           const PocketSearchConfig &ps_cfg)
    : cfg_(cfg),
      browser_(cfg.browser),
      threeG_(radio::threeGConfig()),
      edge_(radio::edgeConfig()),
      wifi_(radio::wifiConfig())
{
    pc::nvm::FlashConfig fc = cfg_.flash;
    fc.capacity = cfg_.flashCapacity;
    flash_ = std::make_unique<pc::nvm::FlashDevice>(fc);
    store_ = std::make_unique<pc::simfs::FlashStore>(*flash_, cfg_.store);
    ps_ = std::make_unique<PocketSearch>(universe, *store_, ps_cfg);
}

MobileDevice::MobileDevice(const MobileDevice &image)
    : cfg_(image.cfg_),
      browser_(cfg_.browser),
      threeG_(radio::threeGConfig()),
      edge_(radio::edgeConfig()),
      wifi_(radio::wifiConfig()),
      now_(image.now_),
      communityVersion_(image.communityVersion_),
      badDeltaStreak_(image.badDeltaStreak_),
      resilience_(image.resilience_),
      missQueue_(image.missQueue_)
{
    pc_assert(image.registry_ == nullptr,
              "cannot clone a device with a metrics registry attached");
    pc_assert(!image.events_.any(),
              "cannot clone a device with a tracer, flight recorder or "
              "health accountant attached");
    pc_assert(image.faults_ == nullptr,
              "cannot clone a device with a fault plan attached");
    flash_ = std::make_unique<pc::nvm::FlashDevice>(*image.flash_);
    store_ = std::make_unique<pc::simfs::FlashStore>(*image.store_, *flash_);
    ps_ = std::make_unique<PocketSearch>(*image.ps_, *store_);
}

InstallImage::InstallImage(const MobileDevice &empty,
                           const core::CommunityDelta &full_install)
    : empty_(empty), installed_(empty),
      frame_(core::frameDelta(full_install))
{
    pc_assert(full_install.fromVersion == 0,
              "an install image holds a full install");
    installed_.store().attachMetrics(&storeCounts_);
    const core::DeltaApplyResult res = core::tryApplyCommunityDelta(
        installed_.pocketSearch(), full_install, applyTime_);
    installed_.store().attachMetrics(nullptr);
    pc_assert(res.ok, "install image: the full install did not apply");
    stats_ = res.stats;
}

SimTime
MobileDevice::installCommunityCache(const core::CacheContents &contents)
{
    SimTime t = 0;
    ps_->loadCommunity(contents, t);
    return t;
}

radio::RadioLink &
MobileDevice::link(ServePath p)
{
    switch (p) {
      case ServePath::ThreeG:
        return threeG_;
      case ServePath::Edge:
        return edge_;
      case ServePath::Wifi:
        return wifi_;
      case ServePath::PocketSearch:
        break;
    }
    pc_panic("no radio link for this serve path");
}

void
MobileDevice::attachFaults(fault::FaultPlan *plan)
{
    faults_ = plan;
    store_->attachFaults(plan);
}

void
MobileDevice::attachMetrics(obs::MetricRegistry *reg)
{
    registry_ = reg;
    store_->attachMetrics(reg);
    metricMirrors_.clear();
    energyMirrors_.clear();
    if (!reg) {
        metrics_ = Metrics{};
        return;
    }
    metrics_.queries = &reg->counter("device.queries");
    metrics_.cacheHits = &reg->counter("device.cache_hits");
    const auto mirror = [&](const std::string &name, const u64 &source) {
        metricMirrors_.push_back({&reg->counter(name), &source, source});
    };
    const ResilienceStats &rs = resilience_;
    mirror("device.radio.attempts", rs.radioAttempts);
    mirror("device.radio.retries", rs.retries);
    mirror("device.radio.no_coverage", rs.noCoverageAttempts);
    mirror("device.radio.failed", rs.failedAttempts);
    mirror("device.radio.latency_spikes", rs.latencySpikes);
    mirror("device.degraded.serves", rs.degradedServes);
    mirror("device.degraded.stale", rs.staleServes);
    mirror("device.degraded.offline_pages", rs.offlinePages);
    mirror("device.missq.queued", rs.queuedMisses);
    mirror("device.missq.synced", rs.syncedMisses);
    mirror("device.sync.corrupt_delta", rs.corruptDeltas);
    mirror("device.sync.rejected_delta", rs.rejectedDeltas);
    const core::ServeStats &ss = ps_->stats();
    mirror("core.search.lookups", ss.lookups);
    mirror("core.search.query_hits", ss.queryHits);
    mirror("core.search.pair_hits", ss.pairHits);
    mirror("core.search.clicks", ss.clicksRecorded);
    mirror("core.search.pairs_learned", ss.pairsLearned);
    mirror("core.search.records_learned", ss.recordsLearned);
    for (ServePath p :
         {ServePath::ThreeG, ServePath::Edge, ServePath::Wifi}) {
        const radio::RadioLink &l = link(p);
        const std::string prefix = "device.radio." + l.name();
        mirror(prefix + ".requests", l.requests());
        mirror(prefix + ".wakeups", l.wakeups());
        energyMirrors_.push_back(
            {&reg->gauge(prefix + ".energy_mj"), &l, l.requests()});
    }
    const ServePath all[4] = {ServePath::PocketSearch,
                              ServePath::ThreeG, ServePath::Edge,
                              ServePath::Wifi};
    for (int i = 0; i < 4; ++i) {
        const std::string key = servePathKey(all[i]);
        metrics_.latency[i] =
            &reg->histogram("device.latency_ms." + key);
        metrics_.energy[i] = &reg->histogram("device.energy_mj." + key);
    }
}

void
MobileDevice::attachHealth(obs::health::HealthAccountant *acct)
{
    events_.health = acct;
    healthMirrors_.clear();
    if (!acct)
        return;
    for (ServePath p :
         {ServePath::ThreeG, ServePath::Edge, ServePath::Wifi}) {
        const radio::RadioLink &l = link(p);
        const auto [busy, ops] = acct->radioLedger(l.name());
        healthMirrors_.push_back({busy, &l.busyNs(), l.busyNs()});
        healthMirrors_.push_back({ops, &l.requests(), l.requests()});
    }
}

void
MobileDevice::publishCounts()
{
    // Most sources stand still in any one operation; only a moved one
    // touches its registry counter.
    for (std::vector<Mirror> *mirrors : {&metricMirrors_, &healthMirrors_}) {
        for (Mirror &m : *mirrors) {
            const u64 value = *m.source;
            if (value == m.seen)
                continue;
            pc_assert(value > m.seen, "a mirrored count ran backwards");
            m.counter->bump(value - m.seen);
            m.seen = value;
        }
    }
    for (EnergyMirror &e : energyMirrors_) {
        if (e.link->requests() == e.seenRequests)
            continue;
        e.gauge->set(e.link->totalEnergy() / 1000.0);
        e.seenRequests = e.link->requests();
    }
}

void
MobileDevice::attachTracer(obs::Tracer *tracer,
                           const std::string &track_label)
{
    events_.tracer = tracer;
    events_.track = tracer ? tracer->track(track_label) : 0;
}

void
MobileDevice::emitSpan(const char *name, SimTime start, SimTime dur) const
{
    if (dur > 0)
        events_.emit(obs::SpanRecord{name, start, dur});
}

void
MobileDevice::finishQueryObs(const workload::PairRef &pair, ServePath path,
                             const QueryOutcome &out, SimTime t0)
{
    const int idx = int(path);
    if (registry_) {
        metrics_.queries->bump();
        if (out.cacheHit)
            metrics_.cacheHits->bump();
        metrics_.latency[idx]->observe(toMillis(out.latency));
        metrics_.energy[idx]->observe(out.energy / 1000.0);
    }
    events_.emit(obs::QueryRecord{&ps_->universe().query(pair.query).text,
                                  servePathName(path), out.cacheHit,
                                  out.degraded, out.attempts, t0,
                                  out.latency, out.energy});
}

void
MobileDevice::addSegment(QueryOutcome &out, std::string_view label,
                         SimTime dur, MilliWatts power) const
{
    if (dur <= 0)
        return;
    out.trace.push_back({label, dur, power});
    out.energy += energyOver(power, dur);
}

template <typename OnAttempt, typename OnBackoff>
MobileDevice::RadioRun
MobileDevice::radioRetry(radio::RadioLink &radio, SimTime start,
                         Bytes uplink, Bytes downlink, u32 max_attempts,
                         OnAttempt &&on_attempt, OnBackoff &&on_backoff)
{
    fault::FaultyLink flink(radio, faults_);
    const RetryPolicy &rp = cfg_.retry;
    RadioRun run;
    for (;;) {
        ++run.attempts;
        ++resilience_.radioAttempts;
        if (run.attempts > 1)
            ++resilience_.retries;

        const SimTime at = start + run.elapsed;
        const auto oc = flink.attempt(at, uplink, downlink, cfg_.serverTime);
        run.elapsed += oc.xfer.latency;
        if (oc.latencySpike)
            ++resilience_.latencySpikes;
        if (oc.noCoverage)
            ++resilience_.noCoverageAttempts;
        if (oc.failed)
            ++resilience_.failedAttempts;
        if (on_attempt(run.attempts, at, oc)) {
            run.ok = true;
            return run;
        }
        if (run.attempts >= max_attempts || run.elapsed >= rp.queryBudget)
            return run;

        // Exponential backoff with jitter before the next attempt. The
        // jitter draw comes from the fault plan so a fixed seed replays
        // the exact same retry timeline; a jitter above 1 can push the
        // multiplier negative, and time never runs backwards.
        SimTime backoff = SimTime(std::llround(
            double(rp.baseBackoff) *
            std::pow(rp.backoffFactor, double(run.attempts - 1))));
        backoff = std::min(backoff, rp.maxBackoff);
        if (faults_)
            backoff = SimTime(std::llround(double(backoff) *
                                           faults_->jitter(rp.jitter)));
        backoff = std::max<SimTime>(backoff, 0);
        on_backoff(run.attempts, start + run.elapsed, backoff);
        run.elapsed += backoff;
    }
}

QueryOutcome
MobileDevice::serveQuery(const workload::PairRef &pair, ServePath path,
                         bool record_click)
{
    QueryOutcome out;
    core::PairProbe probe;
    const SimTime t0 = now_;

    if (path == ServePath::PocketSearch) {
        probe = ps_->servePair(pair, 2);
        out.hashLookupTime = probe.hashLookupTime;
        // Operationally the user is served locally only when the result
        // they are after is among the cached results for the query.
        out.cacheHit = probe.pairCached;
    }
    // The trace's one allocation, sized for the path's longest
    // timeline: a hit shows serve, render and learn; a miss shows the
    // probe, each attempt's exchange plus the backoff after it, then a
    // stale fetch or learn, render and misc.
    const std::size_t attempts = std::max<u32>(cfg_.retry.maxAttempts, 1);
    const std::size_t missSegments =
        3 + attempts * (radio::kMaxExchangeSegments + 1);
    out.trace.reserve(out.cacheHit ? 3 : missSegments);

    if (out.cacheHit) {
        out.fetchTime = probe.fetchTime;
    } else {
        // A miss falls through to 3G (the phone's default data path),
        // having paid only the 10us probe.
        addSegment(out, "probe", out.hashLookupTime, cfg_.basePower);
        emitSpan("probe", t0, out.hashLookupTime);
        const RadioRun run = radioRetry(
            link(path == ServePath::PocketSearch ? ServePath::ThreeG : path),
            t0 + out.hashLookupTime, cfg_.requestBytes, cfg_.responseBytes,
            cfg_.retry.maxAttempts,
            [&](u32, SimTime at, const fault::ExchangeOutcome &oc) {
                // Base power under every radio segment, plus the
                // radio's own; the tail runs after the exchange and
                // only its radio power counts (the user may have left
                // the app).
                for (const auto &seg : oc.xfer.segments) {
                    if (seg.label == "tail") {
                        addSegment(out, "radio-tail", seg.duration,
                                   seg.power);
                    } else {
                        addSegment(out, seg.label, seg.duration,
                                   cfg_.basePower + seg.power);
                    }
                }
                out.radioTime += oc.xfer.latency;
                // One span per attempt: the user-visible exchange time
                // (the tail costs energy, not latency).
                emitSpan(oc.ok           ? "radio-exchange"
                         : oc.noCoverage ? "radio-no-coverage"
                                         : "radio-failed",
                         at, oc.xfer.latency);
                return oc.ok;
            },
            [&](u32, SimTime at, SimTime backoff) {
                addSegment(out, "backoff", backoff, cfg_.basePower);
                emitSpan("backoff", at, backoff);
                out.backoffTime += backoff;
            });
        out.attempts = run.attempts;

        if (!run.ok) {
            // Graceful degradation (the paper's offline-search story):
            // the caller never sees an error. Serve the cached —
            // possibly stale — results when the query string is
            // cached; otherwise render the offline page. Either way,
            // queue the miss so it can be fetched when coverage
            // returns.
            out.degraded = true;
            ++resilience_.degradedServes;
            if (path == ServePath::PocketSearch) {
                missQueue_.push_back(pair);
                ++resilience_.queuedMisses;
            }
            if (probe.hit) {
                out.staleServe = true;
                ++resilience_.staleServes;
                out.fetchTime = probe.fetchTime;
                addSegment(out, "stale-fetch", out.fetchTime,
                           cfg_.basePower);
            } else {
                ++resilience_.offlinePages;
            }
        }
    }

    // Every exit — hit, degraded, served miss — renders the results
    // page and pays the app overhead.
    out.renderTime = browser_.renderSearchPage();
    out.miscTime = browser_.miscOverhead();
    out.latency = out.hashLookupTime + out.radioTime + out.backoffTime +
                  out.fetchTime + out.renderTime + out.miscTime;
    const MilliWatts renderPower =
        cfg_.basePower + browser_.config().renderPower;
    const SimTime tr =
        t0 + out.hashLookupTime + out.radioTime + out.backoffTime;
    if (out.cacheHit) {
        addSegment(out, "local-serve",
                   out.hashLookupTime + out.fetchTime + out.miscTime,
                   cfg_.basePower);
        addSegment(out, "render", out.renderTime, renderPower);
        emitSpan("probe", t0, out.hashLookupTime);
        emitSpan("fetch", tr, out.fetchTime);
        emitSpan("misc", tr + out.fetchTime, out.miscTime);
        emitSpan("render", tr + out.fetchTime + out.miscTime,
                 out.renderTime);
    } else {
        addSegment(out, "render", out.renderTime, renderPower);
        addSegment(out, "misc", out.miscTime, cfg_.basePower);
        emitSpan("stale-fetch", tr, out.fetchTime);
        emitSpan("render", tr + out.fetchTime, out.renderTime);
        emitSpan("misc", tr + out.fetchTime + out.renderTime,
                 out.miscTime);
    }
    if (record_click && path == ServePath::PocketSearch && !out.degraded) {
        SimTime learn = 0;
        ps_->recordClick(pair, probe.queryFnv, probe.urlHash, learn);
        // Learning happens after results display; it costs energy but
        // not user latency.
        addSegment(out, "learn", learn, cfg_.basePower);
    }
    finishQueryObs(pair, path, out, t0);
    now_ += out.latency;
    publishCounts();
    return out;
}

MobileDevice::SyncResult
MobileDevice::syncMissQueue(ServePath path)
{
    pc_assert(path != ServePath::PocketSearch,
              "sync needs a radio path");
    SyncResult res;
    radio::RadioLink &radio = link(path);
    std::size_t done = 0;
    while (done < missQueue_.size()) {
        // One attempt per queued miss, no retry: a failure means
        // connectivity died again, so the rest stays queued.
        const RadioRun run = radioRetry(
            radio, now_, cfg_.requestBytes, cfg_.responseBytes, 1,
            [&](u32, SimTime, const fault::ExchangeOutcome &oc) {
                res.time += oc.xfer.latency;
                res.energy += oc.xfer.radioEnergy;
                return oc.ok;
            },
            [](u32, SimTime, SimTime) {});
        now_ += run.elapsed;
        if (!run.ok)
            break;
        // The queued miss is now fetched: feed it to personalization
        // exactly as a served click would have been.
        SimTime learn = 0;
        ps_->recordClick(missQueue_[done], learn);
        ++res.synced;
        ++resilience_.syncedMisses;
        ++done;
    }
    missQueue_.erase(missQueue_.begin(),
                     missQueue_.begin() + std::ptrdiff_t(done));
    res.remaining = missQueue_.size();
    events_.emit(obs::health::DrainRecord{res.synced, res.time});
    publishCounts();
    return res;
}

MobileDevice::CommunitySyncResult
MobileDevice::syncCommunityUpdate(const core::CommunityDelta &delta,
                                  ServePath path)
{
    pc_assert(path != ServePath::PocketSearch,
              "community sync needs a radio path");
    const std::string frame = core::frameDelta(delta);
    CommunitySyncResult res;
    res.fromVersion = communityVersion_;
    res.toVersion = communityVersion_;
    res.deltaBytes = core::deltaWireBytes(delta, ps_->universe());

    // A device-initiated sync (no service orchestrating) opens its
    // own trace; a service-driven one arrives with the trace already
    // holding the server-tier stages.
    if (!events_.syncOpen())
        events_.emit(obs::SyncEvent{.stage = obs::SyncStage::SyncRequest,
                                    .fromVersion = res.fromVersion,
                                    .toVersion = res.fromVersion,
                                    .start = now_});

    std::optional<core::CommunityDelta> received;
    std::string delivered; // the last frame the radio delivered
    const RadioRun run = radioRetry(
        link(path), now_, cfg_.syncRequestBytes, res.deltaBytes,
        cfg_.retry.maxAttempts,
        [&](u32 attempt, SimTime at, const fault::ExchangeOutcome &oc) {
            res.time += oc.xfer.latency;
            res.energy += oc.xfer.radioEnergy;
            events_.emit(obs::SyncEvent{
                .stage = obs::SyncStage::FrameDelivery, .ok = oc.ok,
                .attempt = attempt, .fromVersion = res.fromVersion,
                .bytes = res.deltaBytes,
                .detail = u64(oc.noCoverage ? 1 : oc.failed ? 2 : 0),
                .start = at, .duration = oc.xfer.latency});
            if (!oc.ok)
                return false;
            // The exchange delivered; the payload may still have been
            // mangled in flight. Verify the frame before trusting it.
            delivered = frame;
            if (faults_)
                faults_->maybeCorruptPayload(delivered);
            core::FrameError ferr;
            received = core::unframeDelta(delivered, &ferr);
            events_.emit(obs::SyncEvent{
                .stage = obs::SyncStage::CrcCheck, .ok = received.has_value(),
                .attempt = attempt, .fromVersion = res.fromVersion,
                .detail = u64(ferr), .start = at + oc.xfer.latency});
            if (received.has_value())
                return true;
            // A corrupt frame re-requests like a failed exchange, under
            // the same backoff.
            ++res.corruptRejected;
            ++resilience_.corruptDeltas;
            return false;
        },
        [&](u32 attempt, SimTime at, SimTime backoff) {
            events_.emit(obs::SyncEvent{
                .stage = obs::SyncStage::Backoff, .attempt = attempt,
                .fromVersion = res.fromVersion, .start = at,
                .duration = backoff});
            res.backoffTime += backoff;
        });
    res.attempts = run.attempts;
    now_ += run.elapsed;

    // One terminal event per sync: Abort, Reject or Commit.
    obs::SyncEvent end;
    end.ok = false;
    end.start = now_;
    SimTime apply = 0;
    if (!run.ok) {
        // A sync defeated by corruption (not mere connectivity)
        // advances the escalation streak: the link delivers, the
        // payloads don't survive, so a fresh full install is the way
        // out. Pure radio failure retries as-is next window.
        if (res.corruptRejected > 0)
            ++badDeltaStreak_;
        end.stage = obs::SyncStage::Abort;
        end.attempt = res.attempts;
        end.fromVersion = res.fromVersion;
        end.detail = res.corruptRejected;
    } else {
        const auto ar = applyDelta(*received, delivered, apply);
        end.fromVersion = received->fromVersion;
        end.toVersion = received->toVersion;
        obs::SyncEvent validate = end;
        validate.stage = obs::SyncStage::Validate;
        validate.ok = ar.ok;
        validate.detail = u64(ar.error);
        events_.emit(validate);
        if (!ar.ok) {
            // Verified frame, but the delta does not fit this device's
            // state (version skew). Transactional apply left the cache
            // untouched; retrying the same delta cannot help.
            res.rejected = true;
            res.applyError = ar.error;
            ++resilience_.rejectedDeltas;
            ++badDeltaStreak_;
            end.stage = obs::SyncStage::Reject;
            end.detail = u64(ar.error);
        } else {
            res.ok = true;
            res.apply = ar.stats;
            res.toVersion = received->toVersion;
            communityVersion_ = received->toVersion;
            badDeltaStreak_ = 0;
            end.stage = obs::SyncStage::Commit;
            end.ok = true;
            end.detail = u64(ar.stats.added + ar.stats.evicted +
                             ar.stats.reranked);
            end.duration = apply;
        }
    }
    events_.emit(end);
    if (res.ok) {
        res.time += apply;
        now_ += apply;
    }
    publishCounts();
    return res;
}

core::DeltaApplyResult
MobileDevice::applyDelta(const core::CommunityDelta &delta,
                         std::string_view frame, SimTime &time)
{
    // The copy must leave what the apply would: same starting state,
    // same delta, and no storage fault that could cut a write short.
    const InstallImage *img = installImage_;
    const fault::FaultPlan *storeFaults = store_->faults();
    const bool adopt =
        img != nullptr && delta.fromVersion == 0 && frame == img->frame_ &&
        (storeFaults == nullptr ||
         (!storeFaults->crashArmed() && !storeFaults->powerLost())) &&
        *flash_ == *img->empty_.flash_ &&
        store_->sameState(*img->empty_.store_) &&
        ps_->sameCache(*img->empty_.ps_);
    if (!adopt)
        return core::tryApplyCommunityDelta(*ps_, delta, time);
    const MobileDevice &src = img->installed_;
    *flash_ = *src.flash_;
    store_->adoptState(*src.store_, img->storeCounts_);
    ps_->adoptCache(*src.ps_);
    time += img->applyTime_;
    ++installsAdopted_;
    return core::DeltaApplyResult{.ok = true, .stats = img->stats_};
}

SimTime
MobileDevice::navigationLatency(const QueryOutcome &q, PageWeight w) const
{
    return q.latency + browser_.pageLoad(w);
}

} // namespace pc::device
