/**
 * @file
 * Ablation — Section 7's multi-cloudlet resource questions, made
 * quantitative on the search cloudlet:
 *
 *  1. hit rate vs flash budget (what happens when several cloudlets
 *     squeeze each other's storage allocation);
 *  2. DRAM index pressure vs a PCM index tier: the index-at-boot cost
 *     the paper's three-tier proposal (Figure 3) eliminates. The tier
 *     table charges what the serve path and restoreIndex charge: a
 *     probe is QueryHashTable::kLookupLatency, plus
 *     PocketSearch::kPcmProbePenalty on PCM; a boot reload is the NAND
 *     read plus PocketSearch::kIndexParsePerByte per index byte.
 */

#include <cmath>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/cache_content.h"
#include "core/pocket_search.h"
#include "device/replay.h"
#include "harness/workbench.h"

using namespace pc;
using namespace pc::core;

int
main()
{
    bench::banner("Ablation",
                  "multi-cloudlet storage budgeting & index tiers");
    harness::Workbench wb;
    CacheContentBuilder builder(wb.universe());

    // 1. Hit rate vs flash budget.
    AsciiTable t("Search-cloudlet hit rate vs flash budget "
                 "(30 users/class replay)");
    t.header({"flash budget", "pairs cached", "volume share covered",
              "combined hit rate"});
    std::vector<double> hit_points; // percentage points, rounded as printed
    for (Bytes budget : {64 * kKiB, 128 * kKiB, 256 * kKiB, 512 * kKiB,
                         1 * kMiB, 2 * kMiB, 4 * kMiB}) {
        ContentPolicy policy;
        policy.kind = ThresholdKind::FlashBudget;
        policy.flashBudget = budget;
        const auto contents = builder.build(wb.triplets(), policy);
        device::ReplayDriver driver(wb.universe(), contents,
                                    wb.population());
        device::ReplayConfig cfg;
        cfg.usersPerClass = 30;
        const auto res = driver.run(cfg);
        t.row({humanBytes(budget),
               strformat("%zu", contents.pairs.size()),
               bench::pct(contents.cumulativeShare),
               bench::pct(res.overallMeanHitRate)});
        hit_points.push_back(std::round(1000.0 * res.overallMeanHitRate) /
                             10.0);
    }
    t.print();
    std::string gains;
    for (size_t i = 1; i < hit_points.size(); ++i)
        gains += strformat("%s%+.1f", i > 1 ? ", " : "",
                           hit_points[i] - hit_points[i - 1]);
    std::printf("\nCombined hit rate gain per budget doubling, in "
                "points: %s.\n", gains.c_str());

    // 2. Index tier: DRAM vs PCM vs reload-from-NAND at boot.
    ContentPolicy at55;
    at55.kind = ThresholdKind::VolumeShare;
    at55.volumeShare = 0.55;
    const auto cache = builder.build(wb.triplets(), at55);
    const Bytes index_bytes = cache.dramBytes;

    // The boot reload as restoreIndex charges it: read the persisted
    // index off NAND, then parse every byte of it.
    const auto nandReload = [](pc::nvm::FlashDevice &nand, Bytes bytes) {
        return nand.read(0, bytes) +
               SimTime(bytes) * PocketSearch::kIndexParsePerByte;
    };
    pc::nvm::FlashDevice nand{pc::nvm::FlashConfig{}};

    const SimTime dram_probe = QueryHashTable::kLookupLatency;
    const SimTime pcm_probe = dram_probe + PocketSearch::kPcmProbePenalty;
    const SimTime nand_reload = nandReload(nand, index_bytes);
    const SimTime pcm_boot = 0; // index persists in place

    AsciiTable tiers(strformat(
        "Index placement (Section 3.3's three-tier proposal), "
        "index size = %s",
        humanBytes(index_bytes).c_str()));
    tiers.header({"tier", "per-probe latency", "boot-time index load",
                  "survives power cycle"});
    tiers.row({"DRAM (index reloaded from NAND at boot)",
               humanTime(dram_probe), humanTime(nand_reload), "no"});
    tiers.row({"PCM index tier", humanTime(pcm_probe),
               humanTime(pcm_boot), "yes"});
    tiers.print();
    std::printf("\nIndex size at the 55%% point: %s. At tens of GB of "
                "cloudlet data across services, indexes reach\nGBs and "
                "the NAND reload grows to seconds-to-minutes — the "
                "paper's case for a PCM middle tier.\n",
                humanBytes(index_bytes).c_str());

    // Scale the reload cost to the paper's multi-cloudlet projection.
    AsciiTable scaled("Projected index reload from NAND at boot");
    scaled.header({"aggregate index size", "NAND read + parse",
                   "PCM (in-place)"});
    for (Bytes idx : {16 * kMiB, 128 * kMiB, 1 * kGiB, 4 * kGiB}) {
        pc::nvm::FlashConfig big;
        big.capacity = 8 * kGiB;
        pc::nvm::FlashDevice nand_big(big);
        scaled.row({humanBytes(idx),
                    humanTime(nandReload(nand_big, idx)),
                    "~0 (persistent)"});
    }
    scaled.print();
    return 0;
}
