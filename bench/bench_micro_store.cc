/**
 * @file
 * YCSB-style microbenchmark of the result database's storage engines:
 * the paper's flat-file layout (Figure 13) against the pc::store slab
 * engine, swept over key skew (uniform / zipf 0.99), operation mix
 * (read-heavy 95/5 / update-heavy 50/50) and page-cache size. The
 * engine cells keep their `hash_` prefix: the committed baseline gates
 * their metric names.
 *
 * Every cell replays the identical pre-generated op stream against a
 * fresh database, measures per-fetch simulated latency, and reports
 * exact sorted-vector p50/p99 — fully deterministic, so the emitted
 * BenchReport is byte-stable and gated by bench_diff in CI. The binary
 * also self-gates: the slab engine must beat the flat files on both
 * p50 and p99 for the zipf read-heavy workload, else it exits nonzero.
 */

#include <algorithm>
#include <iterator>
#include <vector>

#include "bench_common.h"
#include "util/logging.h"
#include "core/result_db.h"
#include "nvm/flash_device.h"
#include "util/hash.h"
#include "util/rng.h"
#include "util/zipf.h"

using namespace pc;

namespace {

constexpr u64 kRecords = 1500;
constexpr u64 kOps = 4000;

struct Op
{
    bool update;
    u32 key;
};

struct Workload
{
    const char *name;
    double skew;        // 0 = uniform
    double updateShare; // fraction of ops that update
    std::vector<Op> ops;
};

struct Cell
{
    const char *name;
    core::DbConfig cfg;
};

struct CellResult
{
    double p50Us = 0;
    double p99Us = 0;
    double meanUs = 0;
    double cacheHitRate = 0;
    u64 gcCollections = 0;
};

workload::ResultInfo
recordInfo(u32 i, u32 version)
{
    workload::ResultInfo r;
    r.navigational = false;
    r.url = strformat("www.site%04u.example.com/page", i);
    r.title = strformat("Result %u", i);
    r.description = strformat(
        "Synthetic landing-page snippet for result %u, revision %u.", i,
        version);
    return r;
}

double
quantileUs(std::vector<SimTime> sorted, double q)
{
    std::sort(sorted.begin(), sorted.end());
    const std::size_t idx =
        std::size_t(q * double(sorted.size() - 1) + 0.5);
    return double(sorted[idx]) / 1000.0;
}

CellResult
runCell(const Cell &cell, const Workload &wl)
{
    nvm::FlashConfig fc;
    fc.capacity = 256 * kMiB;
    nvm::FlashDevice device(fc);
    simfs::FlashStore store(device);
    core::ResultDatabase db(store, cell.cfg);

    SimTime t = 0;
    std::vector<u32> versions(kRecords, 1);
    for (u32 i = 0; i < kRecords; ++i)
        db.addRecord(recordInfo(i, 1), t);

    std::vector<SimTime> fetchLat;
    fetchLat.reserve(wl.ops.size());
    for (const Op &op : wl.ops) {
        if (op.update) {
            db.updateRecord(recordInfo(op.key, ++versions[op.key]), t);
            continue;
        }
        const u64 key = urlHash(recordInfo(op.key, 1).url);
        core::RecordView rec;
        SimTime lat = 0;
        const bool found = db.fetch(key, rec, lat);
        pc_assert(found, "benchmark record vanished");
        fetchLat.push_back(lat);
    }

    CellResult r;
    r.p50Us = quantileUs(fetchLat, 0.50);
    r.p99Us = quantileUs(fetchLat, 0.99);
    SimTime sum = 0;
    for (const SimTime l : fetchLat)
        sum += l;
    r.meanUs = double(sum) / double(fetchLat.size()) / 1000.0;
    if (const auto *eng = db.engine()) {
        r.cacheHitRate = eng->cacheStats().hitRate();
        r.gcCollections = eng->gcStats().collections;
    }
    return r;
}

} // namespace

int
main()
{
    bench::banner("micro_store",
                  "YCSB-style sweep: flat files vs pc::store slab engine");

    // Pre-generate each workload's op stream once; every cell replays
    // the identical stream, so the comparison is paired.
    Workload workloads[] = {
        {"uni_read", 0.0, 0.05, {}},
        {"uni_upd", 0.0, 0.50, {}},
        {"zipf_read", 0.99, 0.05, {}},
        {"zipf_upd", 0.99, 0.50, {}},
    };
    for (auto &wl : workloads) {
        Rng rng(urlHash(wl.name));
        const ZipfSampler zipf(kRecords, wl.skew);
        wl.ops.reserve(kOps);
        for (u64 i = 0; i < kOps; ++i) {
            Op op;
            op.update = rng.chance(wl.updateShare);
            op.key = u32(zipf.sample(rng));
            wl.ops.push_back(op);
        }
    }

    auto engineCfg = [](u32 cachePages) {
        core::DbConfig cfg;
        cfg.useStoreEngine = true;
        cfg.engine.cache.capacityPages = cachePages;
        return cfg;
    };
    const Cell cells[] = {
        {"flat", core::DbConfig{}},
        {"hash_c256", engineCfg(256)},
        {"hash_c16", engineCfg(16)},
    };

    obs::BenchReport report(
        "micro_store",
        "YCSB-style sweep — flat files vs pc::store slab engine");
    report.note("records", strformat("%llu", (unsigned long long)kRecords));
    report.note("ops_per_cell", strformat("%llu", (unsigned long long)kOps));
    report.note("mixes", "read-heavy 95/5, update-heavy 50/50");
    report.note("skews", "uniform, zipf(0.99)");

    CellResult grid[4][std::size(cells)];
    for (int w = 0; w < 4; ++w) {
        const Workload &wl = workloads[w];
        AsciiTable t(strformat("fetch latency, %s (us, simulated)",
                               wl.name));
        t.header({"cell", "p50", "p99", "mean", "cache hit", "gc runs"});
        for (std::size_t c = 0; c < std::size(cells); ++c) {
            const CellResult r = runCell(cells[c], wl);
            grid[w][c] = r;
            t.row({cells[c].name, strformat("%.1f", r.p50Us),
                   strformat("%.1f", r.p99Us),
                   strformat("%.1f", r.meanUs),
                   c == 0 ? "-" : bench::pct(r.cacheHitRate),
                   c == 0 ? "-"
                          : strformat("%llu",
                                      (unsigned long long)r.gcCollections)});
            const std::string base =
                strformat("lat.%s.%s.", wl.name, cells[c].name);
            report.metric(base + "p50_us", r.p50Us, "us");
            report.metric(base + "p99_us", r.p99Us, "us");
            report.metric(base + "mean_us", r.meanUs, "us");
            if (c != 0) {
                report.metric(strformat("cache.%s.%s.hit_rate", wl.name,
                                        cells[c].name),
                              r.cacheHitRate);
            }
        }
        t.print();
    }

    // Self-gate (the acceptance bar of this subsystem): on the zipf
    // read-heavy workload the slab engine must beat flat files on both
    // p50 and p99.
    const CellResult &flat = grid[2][0];
    const CellResult &eng = grid[2][1]; // 256-page cache
    const double p50Win = flat.p50Us / eng.p50Us;
    const double p99Win = flat.p99Us / eng.p99Us;
    std::printf("\nzipf read-heavy: engine(hash,c256) vs flat — p50 %s, "
                "p99 %s\n",
                bench::times(p50Win).c_str(), bench::times(p99Win).c_str());
    report.metric("win.zipf_read.p50", p50Win, "x");
    report.metric("win.zipf_read.p99", p99Win, "x");
    bench::emitReport(report);

    if (eng.p50Us >= flat.p50Us || eng.p99Us >= flat.p99Us) {
        std::fprintf(stderr,
                     "FAIL: slab engine does not beat flat files on "
                     "zipf read-heavy (p50 %.1f vs %.1f, p99 %.1f vs "
                     "%.1f us)\n",
                     eng.p50Us, flat.p50Us, eng.p99Us, flat.p99Us);
        return 1;
    }
    return 0;
}
