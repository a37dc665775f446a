/**
 * @file
 * Heap allocations on the serve path (fast tier). A global operator-new
 * counter, as in bench_trace_overhead, brackets single served queries
 * on a warm device and one small runFleet in perfbench's fleet_year
 * shape (personalized fleet, month-3 outage):
 *
 *  - a served hit allocates at most once: the returned trace;
 *  - a served 3G miss allocates at most twice: the trace and the
 *    radio exchange's power timeline;
 *  - a fleet_year-shaped run stays under kFleetAllocsPerQuery
 *    allocations per served query.
 *
 * The counter replaces the global operator new, which a sanitizer
 * runtime also provides; under ASan/TSan the counting is skipped and
 * only the serving runs.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <algorithm>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "device/mobile_device.h"
#include "harness/fleet.h"
#include "harness/workbench.h"
#include "obs/fleet.h"
#include "obs/metrics.h"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define PC_COUNT_ALLOCS 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define PC_COUNT_ALLOCS 0
#endif
#endif
#ifndef PC_COUNT_ALLOCS
#define PC_COUNT_ALLOCS 1
#endif

namespace {
std::atomic<unsigned long long> g_allocs{0};
}

#if PC_COUNT_ALLOCS
void *
operator new(std::size_t n)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t n)
{
    return ::operator new(n);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    ::operator delete(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    ::operator delete(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    ::operator delete(p);
}
#endif

namespace pc::device {
namespace {

/**
 * Upper bound on heap allocations per served query in a runFleet of
 * perfbench's fleet_year shape (25 devices x 24 months, outage in
 * months 3-4): everything the run does (device clones, month streams,
 * learning, telemetry windows and the fold) divided by the queries it
 * served. This run measures 3.26 (libstdc++, GCC 12); before the serve
 * path hashed each string once and reused its buffers it measured
 * 12.96.
 */
constexpr double kFleetAllocsPerQuery = 4.0;

/** Allocations made by `fn`. */
template <typename Fn>
unsigned long long
allocsOf(Fn &&fn)
{
    const unsigned long long before =
        g_allocs.load(std::memory_order_relaxed);
    fn();
    return g_allocs.load(std::memory_order_relaxed) - before;
}

harness::Workbench &
workbench()
{
    static harness::Workbench wb(harness::smallWorkbenchConfig());
    return wb;
}

/** The fleet's image: a fresh device holding the community push. */
const MobileDevice &
image()
{
    static const auto img = [] {
        auto d = std::make_unique<MobileDevice>(workbench().universe());
        d->installCommunityCache(workbench().communityCache());
        return d;
    }();
    return *img;
}

/** A fleet device: a clone of the image, metered, then warmed. */
struct WarmDevice
{
    WarmDevice() : dev(image())
    {
        dev.attachMetrics(&registry);
        const auto &u = workbench().universe();
        for (const auto &sp : workbench().communityCache().pairs)
            hits.push_back(sp.pair);
        for (u32 q = 0; q < u.numQueries() && misses.size() < 2500; ++q) {
            for (const auto &[r, w] : u.query(q).results) {
                (void)w;
                const workload::PairRef p{q, r};
                if (!dev.pocketSearch().containsPair(p)) {
                    misses.push_back(p);
                    break;
                }
            }
        }
        // Warm every reused buffer and the metric sketches.
        for (std::size_t i = 0; i < 3000; ++i)
            dev.serveQuery(hits[i % hits.size()], ServePath::PocketSearch);
        for (std::size_t i = 0; i < 2000 && i < misses.size(); ++i)
            dev.serveQuery(misses[i], ServePath::PocketSearch, false);
    }

    obs::MetricRegistry registry;
    MobileDevice dev;
    std::vector<workload::PairRef> hits;
    std::vector<workload::PairRef> misses;
};

TEST(ServeAllocTest, WarmHitAllocatesOnlyTheTrace)
{
    WarmDevice w;
    ASSERT_GT(w.hits.size(), 100u);
    unsigned long long worst = 0;
    for (std::size_t i = 0; i < 500; ++i) {
        const auto n = allocsOf([&] {
            const auto out = w.dev.serveQuery(w.hits[i % w.hits.size()],
                                              ServePath::PocketSearch);
            ASSERT_TRUE(out.cacheHit);
        });
        worst = std::max(worst, n);
    }
    if (PC_COUNT_ALLOCS) {
        EXPECT_LE(worst, 1u);
    }
}

TEST(ServeAllocTest, WarmMissAllocatesTraceAndTimeline)
{
    WarmDevice w;
    ASSERT_GE(w.misses.size(), 2500u);
    unsigned long long worst = 0;
    for (std::size_t i = 2000; i < 2500; ++i) {
        const auto n = allocsOf([&] {
            const auto out = w.dev.serveQuery(
                w.misses[i], ServePath::PocketSearch, false);
            ASSERT_FALSE(out.cacheHit);
            ASSERT_EQ(out.attempts, 1u);
        });
        worst = std::max(worst, n);
    }
    if (PC_COUNT_ALLOCS) {
        EXPECT_LE(worst, 2u);
    }
}

TEST(ServeAllocTest, FleetYearShapedRunStaysUnderBound)
{
    harness::FleetRunConfig cfg;
    cfg.devices = 25;
    cfg.months = 24;
    cfg.seed = 7;
    cfg.outageStartMonth = 3;
    cfg.outageMonths = 2;
    obs::FleetConfig fc;
    fc.windowWidth = workload::kMonth;
    obs::FleetCollector collector(fc);
    const harness::Workbench &wb = workbench();
    harness::FleetRunResult run;
    const auto n =
        allocsOf([&] { run = harness::runFleet(wb, cfg, collector); });
    ASSERT_TRUE(run.error.empty());
    ASSERT_GT(run.queries, 1000u);
    ASSERT_GT(run.degradedServes, 0u) << "the outage must bite";
    const double perQuery = double(n) / double(run.queries);
    RecordProperty("allocs_per_query", std::to_string(perQuery));
    if (PC_COUNT_ALLOCS) {
        EXPECT_LE(perQuery, kFleetAllocsPerQuery)
            << n << " allocations for " << run.queries << " queries";
    }
}

} // namespace
} // namespace pc::device
