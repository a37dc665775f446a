/**
 * @file
 * Microbenchmarks (google-benchmark) of the hot operations on the
 * PocketSearch fast path and in the workload generator: hash-table
 * lookup (the paper's 10 us budget), database fetch, click-ranking
 * update, the whole served hit with its click (the device serve path)
 * and the click's PocketSearch bookkeeping, Zipf sampling, universe
 * pair sampling, one user-stream event at a fixed history size, one
 * month of community log generation, CRC-32 over frame-sized buffers,
 * and one first-contact community sync, running the apply against
 * adopting the shared install image.
 *
 * These measure *host* performance of the implementation (the simulated
 * latencies above are modelled, not measured).
 */

#include <benchmark/benchmark.h>

#include <map>
#include <memory>
#include <string>

#include "core/cache_content.h"
#include "core/delta.h"
#include "core/pocket_search.h"
#include "device/mobile_device.h"
#include "fault/fault_plan.h"
#include "harness/workbench.h"
#include "util/crc32.h"
#include "util/hash.h"
#include "util/zipf.h"
#include "workload/loggen.h"

using namespace pc;
using namespace pc::core;

namespace {

/** Lazily built shared fixture (workbench is expensive). */
struct Fixture
{
    Fixture()
        : wb(harness::smallWorkbenchConfig())
    {
        pc::nvm::FlashConfig fc;
        fc.capacity = 256 * kMiB;
        flash = std::make_unique<pc::nvm::FlashDevice>(fc);
        store = std::make_unique<pc::simfs::FlashStore>(*flash);
        ps = std::make_unique<PocketSearch>(wb.universe(), *store);
        SimTime t = 0;
        ps->loadCommunity(wb.communityCache(), t);
    }

    harness::Workbench wb;
    std::unique_ptr<pc::nvm::FlashDevice> flash;
    std::unique_ptr<pc::simfs::FlashStore> store;
    std::unique_ptr<PocketSearch> ps;
};

Fixture &
fixture()
{
    static Fixture f;
    return f;
}

void
BM_HashTableLookup(benchmark::State &state)
{
    auto &f = fixture();
    const auto &cache = f.wb.communityCache();
    std::vector<std::string> queries;
    for (std::size_t i = 0; i < 64 && i < cache.pairs.size(); ++i)
        queries.push_back(
            f.wb.universe().query(cache.pairs[i].pair.query).text);
    std::size_t i = 0;
    for (auto _ : state) {
        auto refs = f.ps->table().lookup(queries[i % queries.size()]);
        benchmark::DoNotOptimize(refs);
        ++i;
    }
}
BENCHMARK(BM_HashTableLookup);

void
BM_HashTableMiss(benchmark::State &state)
{
    auto &f = fixture();
    for (auto _ : state) {
        auto refs = f.ps->table().lookup("definitely not cached query");
        benchmark::DoNotOptimize(refs);
    }
}
BENCHMARK(BM_HashTableMiss);

void
BM_DatabaseFetch(benchmark::State &state)
{
    auto &f = fixture();
    const auto &cache = f.wb.communityCache();
    const auto &r =
        f.wb.universe().result(cache.pairs[0].pair.result);
    const u64 key = urlHash(r.url);
    for (auto _ : state) {
        RecordView rec;
        SimTime t = 0;
        benchmark::DoNotOptimize(f.ps->db().fetch(key, rec, t));
        benchmark::DoNotOptimize(rec);
    }
}
BENCHMARK(BM_DatabaseFetch);

void
BM_ApplyClick(benchmark::State &state)
{
    auto &f = fixture();
    const auto &cache = f.wb.communityCache();
    const auto &q =
        f.wb.universe().query(cache.pairs[0].pair.query);
    const auto &r =
        f.wb.universe().result(cache.pairs[0].pair.result);
    const u64 key = urlHash(r.url);
    for (auto _ : state)
        f.ps->table().applyClick(q.text, key, 0.1);
}
BENCHMARK(BM_ApplyClick);

/** The community pairs, which an installed device serves as hits. */
std::vector<workload::PairRef>
cachedPairs(const Fixture &f)
{
    std::vector<workload::PairRef> pairs;
    for (const auto &sp : f.wb.communityCache().pairs)
        pairs.push_back(sp.pair);
    return pairs;
}

void
BM_ServeQueryHitWithClick(benchmark::State &state)
{
    // A served hit end to end: probe, two-record fetch, render
    // accounting and the click fed back into personalization.
    auto &f = fixture();
    device::MobileDevice dev(f.wb.universe());
    dev.installCommunityCache(f.wb.communityCache());
    const auto pairs = cachedPairs(f);
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(dev.serveQuery(
            pairs[i % pairs.size()], device::ServePath::PocketSearch, true));
        ++i;
    }
}
BENCHMARK(BM_ServeQueryHitWithClick);

void
BM_ServeQueryMiss(benchmark::State &state)
{
    // A served miss end to end: the probe, then the 3G fallback through
    // a fault plan that fails, spikes and retries some attempts. No
    // click is fed back, so every query stays a miss.
    auto &f = fixture();
    device::MobileDevice dev(f.wb.universe());
    dev.installCommunityCache(f.wb.communityCache());
    fault::FaultConfig fc;
    fc.seed = 3;
    fc.radio.exchangeFailureRate = 0.1;
    fc.radio.latencySpikeRate = 0.1;
    fault::FaultPlan plan(fc);
    dev.attachFaults(&plan);
    const auto &u = f.wb.universe();
    std::vector<workload::PairRef> pairs;
    for (u32 q = 0; q < u.numQueries() && pairs.size() < 1024; ++q) {
        const workload::PairRef p{q, u.query(q).results.front().first};
        if (!dev.pocketSearch().containsPair(p))
            pairs.push_back(p);
    }
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(dev.serveQuery(
            pairs[i % pairs.size()], device::ServePath::PocketSearch,
            false));
        ++i;
    }
}
BENCHMARK(BM_ServeQueryMiss);

void
BM_RecordClick(benchmark::State &state)
{
    // The click alone: re-rank the query's chain and resync its
    // auto-suggest entry.
    auto &f = fixture();
    const auto pairs = cachedPairs(f);
    std::size_t i = 0;
    SimTime t = 0;
    for (auto _ : state) {
        f.ps->recordClick(pairs[i % pairs.size()], t);
        benchmark::DoNotOptimize(t);
        ++i;
    }
}
BENCHMARK(BM_RecordClick);

void
BM_QueryHash(benchmark::State &state)
{
    const std::string q = "michael jackson";
    for (auto _ : state)
        benchmark::DoNotOptimize(queryHash(q, 0));
}
BENCHMARK(BM_QueryHash);

void
BM_ZipfSample(benchmark::State &state)
{
    ZipfSampler z(u64(state.range(0)), 1.0);
    Rng rng(7);
    for (auto _ : state)
        benchmark::DoNotOptimize(z.sample(rng));
}
BENCHMARK(BM_ZipfSample)->Arg(1000)->Arg(100000)->Arg(10000000);

void
BM_UniverseSamplePair(benchmark::State &state)
{
    auto &f = fixture();
    Rng rng(11);
    for (auto _ : state) {
        benchmark::DoNotOptimize(f.wb.universe().samplePair(
            rng, workload::DeviceType::Smartphone));
    }
}
BENCHMARK(BM_UniverseSamplePair);

/**
 * A user stream pre-warmed to `distinct` history entries, built once
 * per size. Benchmarks copy it, so every run starts from the same
 * history whatever the iteration count.
 */
const workload::UserStream &
warmStream(std::size_t distinct)
{
    static std::map<std::size_t, workload::UserStream> warmed;
    workload::UserProfile profile;
    profile.monthlyVolume = 1000000; // never exhausts during the bench
    profile.newRate = 0.4;
    const auto [it, fresh] =
        warmed.try_emplace(distinct, fixture().wb.universe(), profile, 3);
    if (fresh) {
        it->second.beginMonth(0);
        while (it->second.historySize() < distinct)
            it->second.next();
    }
    return it->second;
}

/**
 * One event of a stream whose history holds range(0) distinct pairs.
 * Each iteration generates a short batch from a fresh copy of the
 * warmed stream, so the history (and with it the re-find cost) does
 * not grow with the iteration count.
 */
void
BM_UserStreamEvent(benchmark::State &state)
{
    constexpr int kBatch = 256;
    const auto &warm = warmStream(std::size_t(state.range(0)));
    for (auto _ : state) {
        state.PauseTiming();
        workload::UserStream stream = warm;
        state.ResumeTiming();
        for (int i = 0; i < kBatch; ++i)
            benchmark::DoNotOptimize(stream.next());
    }
    state.SetItemsProcessed(state.iterations() * kBatch);
}
BENCHMARK(BM_UserStreamEvent)->Arg(100)->Arg(1000)->Arg(10000);

/**
 * Month 12 of a 300-user community log over a tiny universe: every
 * stream carries 11 months of history, as in a long LogGenerator run.
 */
void
BM_LogGenMonth(benchmark::State &state)
{
    workload::UniverseConfig ucfg;
    ucfg.navResults = 500;
    ucfg.nonNavResults = 2000;
    ucfg.navHead = 60;
    ucfg.nonNavHead = 60;
    ucfg.habitNavHead = 40;
    ucfg.habitNonNavHead = 25;
    static const workload::QueryUniverse universe(ucfg);
    static const workload::LogGenerator warm = [] {
        workload::LogGenConfig lg;
        lg.seed = 5;
        lg.numUsers = 300;
        workload::LogGenerator gen(universe, workload::PopulationConfig{},
                                   lg);
        for (int m = 0; m < 11; ++m)
            gen.generateMonth();
        return gen;
    }();
    std::size_t records = 0;
    for (auto _ : state) {
        state.PauseTiming();
        workload::LogGenerator gen = warm;
        state.ResumeTiming();
        const workload::SearchLog log = gen.generateMonth();
        benchmark::DoNotOptimize(log.records().data());
        records += log.size();
    }
    state.SetItemsProcessed(i64(records));
}
BENCHMARK(BM_LogGenMonth)->Unit(benchmark::kMillisecond);

void
BM_Crc32(benchmark::State &state)
{
    std::string buf(std::size_t(state.range(0)), '\0');
    for (std::size_t i = 0; i < buf.size(); ++i)
        buf[i] = char(i * 131 + 7);
    for (auto _ : state)
        benchmark::DoNotOptimize(crc32(buf));
    state.SetBytesProcessed(i64(state.iterations()) * i64(buf.size()));
}
BENCHMARK(BM_Crc32)->Arg(64)->Arg(4 << 10)->Arg(64 << 10);

/**
 * One first-contact sync of the workbench's community push onto a
 * fresh clone of an empty device: Arg 0 runs the apply, Arg 1 adopts
 * the prepared device::InstallImage. Both pay the same frame, CRC
 * check and decode; the clone and its teardown are untimed.
 */
void
BM_FirstContactApply(benchmark::State &state)
{
    const Fixture &f = fixture();
    static const device::MobileDevice empty(f.wb.universe());
    static const CommunityDelta full =
        diffContents(CacheContents{}, f.wb.communityCache(), 0, 1);
    static const device::InstallImage image(empty, full);
    const bool adopt = state.range(0) == 1;
    std::unique_ptr<device::MobileDevice> dev;
    for (auto _ : state) {
        state.PauseTiming();
        dev = std::make_unique<device::MobileDevice>(empty);
        if (adopt)
            dev->attachInstallImage(&image);
        state.ResumeTiming();
        benchmark::DoNotOptimize(dev->syncCommunityUpdate(full).ok);
    }
    state.SetLabel(adopt ? "adopt" : "install");
}
BENCHMARK(BM_FirstContactApply)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMicrosecond);

} // namespace

BENCHMARK_MAIN();
