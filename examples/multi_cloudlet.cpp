/**
 * @file
 * Multiple pocket cloudlets on one phone (Sections 3 and 7): search,
 * mobile ads, and map tiles share the device's flash. The example
 * prints each cloudlet's index/data footprint and, when the user needs
 * space back, shrinks each cloudlet by hand with shrinkTo; the tile
 * cloudlets give up their popularity tails first.
 */

#include <cstdio>
#include <vector>

#include "core/pocket_search.h"
#include "core/tile_cloudlet.h"
#include "harness/workbench.h"
#include "util/strings.h"

using namespace pc;
using namespace pc::core;

namespace {

void
printCloudlets(const std::vector<Cloudlet *> &cloudlets)
{
    std::printf("  %-8s %12s %12s %10s %8s\n", "cloudlet", "index",
                "data", "lookups", "hit rate");
    Bytes index_total = 0, data_total = 0;
    for (const Cloudlet *c : cloudlets) {
        std::printf("  %-8s %12s %12s %10llu %7.0f%%\n",
                    c->name().c_str(),
                    humanBytes(c->indexBytes()).c_str(),
                    humanBytes(c->dataBytes()).c_str(),
                    (unsigned long long)c->lookups(),
                    100.0 * c->hitRate());
        index_total += c->indexBytes();
        data_total += c->dataBytes();
    }
    std::printf("  %-8s %12s %12s\n", "total",
                humanBytes(index_total).c_str(),
                humanBytes(data_total).c_str());
}

} // namespace

int
main()
{
    harness::Workbench wb(harness::smallWorkbenchConfig());

    // One flash part hosts every cloudlet's files plus user data.
    pc::nvm::FlashConfig fc;
    fc.capacity = 1 * kGiB;
    pc::nvm::FlashDevice flash(fc);
    pc::simfs::FlashStore store(flash);

    // The search cloudlet (the paper's showcase)...
    PocketSearch ps(wb.universe(), store);
    SimTime t = 0;
    ps.loadCommunity(wb.communityCache(), t);
    SearchCloudlet search(ps);

    // ...and two sibling item cloudlets from Table 2's families.
    TileCloudletConfig ads_cfg;
    ads_cfg.name = "ads";
    ads_cfg.itemSize = 5 * kKiB;
    ads_cfg.universeItems = 500'000;
    ads_cfg.popularitySkew = 1.0;
    TileCloudlet ads(store, ads_cfg);

    TileCloudletConfig maps_cfg;
    maps_cfg.name = "maps";
    maps_cfg.itemSize = 5 * kKiB;
    maps_cfg.universeItems = 2'000'000;
    maps_cfg.popularitySkew = 0.7;
    TileCloudlet maps(store, maps_cfg);

    ads.fillTop(4'000, t);
    maps.fillTop(20'000, t);

    std::vector<Cloudlet *> cloudlets = {&search, &ads, &maps};
    std::printf("after the overnight push:\n");
    printCloudlets(cloudlets);

    // A burst of traffic against all three services.
    Rng rng(99);
    workload::PopulationSampler sampler(wb.population());
    auto profile =
        sampler.sampleUserOfClass(rng, workload::UserClass::High);
    workload::UserStream stream(wb.universe(), profile, 17);
    for (int i = 0; i < 120; ++i) {
        const auto ev = stream.next();
        const auto probe = ps.servePair(ev.pair);
        ps.recordClick(ev.pair, probe.queryFnv, probe.urlHash, t);
        SimTime tt = 0;
        ads.access(ads.sampleAccess(rng), tt);
        maps.access(maps.sampleAccess(rng), tt);
    }
    stream.beginMonth(0);
    std::printf("\nafter a burst of traffic:\n");
    printCloudlets(cloudlets);

    // The user installs a big app: the OS reclaims ~60 MB from the
    // cloudlets, least-valuable content first (tile tails).
    std::printf("\nreclaiming space: shrink maps to 40 MB, ads to "
                "10 MB\n");
    const Bytes freed = maps.shrinkTo(40 * kMiB) +
                        ads.shrinkTo(10 * kMiB) +
                        search.shrinkTo(0);
    std::printf("  released %s (search shrinks only via its nightly "
                "rebuild)\n",
                humanBytes(freed).c_str());
    printCloudlets(cloudlets);
    std::printf("\nexpected hit rates after shrink: ads %.0f%%, maps "
                "%.0f%% (popularity heads survive)\n",
                100.0 * ads.expectedHitRate(),
                100.0 * maps.expectedHitRate());
    return 0;
}
