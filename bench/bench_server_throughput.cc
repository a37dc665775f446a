/**
 * @file
 * Cloud ingest throughput — the community-model builder swept over
 * worker-thread counts.
 *
 * Builds the same community month with 1/2/4/.../T threads (T from
 * --threads / PC_THREADS, default 8) over 8 query-hash shards and
 * reports wall time, records/s and speedup vs the sequential
 * (fromLog) reference, the `seq` row. Every point is checked for
 * byte-identity against the sequential build — the pipeline's core
 * invariant — and the process exits non-zero if any point diverges.
 *
 * The BenchReport (gated by bench_diff in CI) carries only the
 * deterministic quantities: record/row counts, model encoding size,
 * delta sizes and the per-point identity bits. Wall-clock timings are
 * printed to the console only — they depend on the host's core count
 * (CI runners often pin to one core, where the sweep is flat), so
 * they belong in EXPERIMENTS.md methodology, not in a byte-gated
 * artifact.
 */

#include <chrono>
#include <functional>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/delta.h"
#include "harness/workbench.h"
#include "server/builder.h"
#include "server/service.h"

using namespace pc;
using namespace pc::harness;

namespace {

double
wallMsOf(const std::function<void()> &fn)
{
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

} // namespace

int
main(int argc, char **argv)
{
    const unsigned maxThreads = pc::bench::threadsKnob(argc, argv, 8);
    bench::banner("Server throughput",
                  "sharded community-model build, 1.." +
                      strformat("%u", maxThreads) + " threads");
    Workbench wb(smallWorkbenchConfig());
    const auto &log = wb.buildLog();
    const core::ContentPolicy policy{};

    // Sequential reference: the single-sorted-vector build every
    // pipeline shape must reproduce byte for byte.
    server::CommunityModel ref;
    const double refMs = wallMsOf([&] {
        ref.version = 1;
        ref.table = logs::TripletTable::fromLog(log);
        core::CacheContentBuilder cb(wb.universe());
        ref.contents = cb.build(ref.table, policy);
    });
    const std::string want = ref.encode();

    std::vector<unsigned> sweep;
    for (unsigned t = 1; t <= maxThreads; t *= 2)
        sweep.push_back(t);
    if (sweep.back() != maxThreads)
        sweep.push_back(maxThreads);

    AsciiTable t("Ingest scaling (8 shards, " +
                 strformat("%zu", log.size()) + " records)");
    t.header({"threads", "wall ms", "records/s", "speedup", "identical"});
    t.row({"seq", strformat("%.1f", refMs),
           strformat("%.3g", double(log.size()) / (refMs / 1e3)), "1.0x",
           "ref"});

    bool allIdentical = true;
    std::vector<std::pair<unsigned, bool>> identity;
    for (unsigned threads : sweep) {
        server::BuildConfig cfg;
        cfg.shards = 8;
        cfg.threads = threads;
        server::CommunityModelBuilder b(wb.universe(), cfg);
        server::CommunityModel m;
        const double ms =
            wallMsOf([&] { m = b.build(log, 1, policy); });
        const bool same = m.encode() == want;
        allIdentical = allIdentical && same;
        identity.emplace_back(threads, same);
        t.row({strformat("%u", threads), strformat("%.1f", ms),
               strformat("%.3g", double(log.size()) / (ms / 1e3)),
               bench::times(refMs / ms),
               same ? "yes" : "** NO **"});
    }
    t.print();
    std::printf("\nbyte-identity across the sweep: %s\n",
                allIdentical ? "OK" : "** FAILED **");

    // Delta sizing at this scale: full install vs one month's delta.
    server::ServiceConfig scfg;
    scfg.build.shards = 8;
    scfg.build.threads = maxThreads;
    server::CloudUpdateService svc(wb.universe(), scfg);
    {
        workload::SearchLog half(wb.universe());
        const auto &records = log.records();
        half.reserve(records.size() / 2);
        for (std::size_t i = 0; i < records.size() / 2; ++i)
            half.add(records[i]);
        svc.ingest(half);
    }
    svc.ingest(log);
    const auto fullInstall = svc.makeDelta(0, 2);
    const auto monthly = svc.makeDelta(1, 2);
    const Bytes fullBytes =
        core::deltaWireBytes(fullInstall, wb.universe());
    const Bytes deltaBytes = core::deltaWireBytes(monthly, wb.universe());
    AsciiTable d("Delta sync sizes (v1 = half month, v2 = full month)");
    d.header({"update", "adds", "evicts", "reranks", "wire KiB"});
    d.row({"full install", strformat("%zu", fullInstall.adds.size()),
           "0", "0", strformat("%.1f", double(fullBytes) / 1024.0)});
    d.row({"delta v1->v2", strformat("%zu", monthly.adds.size()),
           strformat("%zu", monthly.evicts.size()),
           strformat("%zu", monthly.reranks.size()),
           strformat("%.1f", double(deltaBytes) / 1024.0)});
    d.print();

    obs::BenchReport report("server_throughput",
                            "Cloud ingest — sharded build + delta sync");
    report.note("shards", "8");
    report.note("max_threads", strformat("%u", maxThreads));
    report.metric("records", double(log.size()));
    report.metric("distinct_pairs", double(ref.table.rows().size()));
    report.metric("contents_pairs", double(ref.contents.pairs.size()));
    report.metric("model_bytes", double(want.size()));
    report.metric("full_install_bytes", double(fullBytes));
    report.metric("delta_bytes", double(deltaBytes));
    report.metric("delta_adds", double(monthly.adds.size()));
    report.metric("delta_evicts", double(monthly.evicts.size()));
    report.metric("delta_reranks", double(monthly.reranks.size()));
    for (const auto &[threads, same] : identity)
        report.metric("identical." + strformat("%u", threads),
                      same ? 1.0 : 0.0);
    // The service registry carries timing-dependent gauges (queue
    // depths, wall ms) — deliberately NOT attached: this report is
    // byte-gated and diffed for determinism in CI.
    bench::emitReport(report);

    return allIdentical ? 0 : 1;
}
