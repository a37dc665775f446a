#include "device/replay.h"

#include "nvm/flash_device.h"
#include "simfs/flash_store.h"
#include "util/logging.h"

namespace pc::device {

ReplayDriver::ReplayDriver(const core::QueryUniverse &universe,
                           const CacheContents &contents,
                           const workload::PopulationConfig &pop)
    : universe_(universe), contents_(contents), pop_(pop)
{
}

UserReplayResult
ReplayDriver::replayUser(const UserProfile &profile,
                         const std::vector<StreamEvent> &events,
                         core::PocketSearch &ps) const
{
    UserReplayResult res;
    res.profile = profile;
    SimTime sink = 0;
    for (const auto &ev : events) {
        const bool hit = ps.containsPair(ev.pair);
        ++res.events;
        const bool nav = universe_.isNavigationalPair(ev.pair);
        if (hit) {
            ++res.hits;
            if (nav)
                ++res.navHits;
            else
                ++res.nonNavHits;
        }
        // Window accounting relative to the month start (events carry
        // absolute times; the month starts at the first event's window).
        const SimTime rel = ev.time % workload::kMonth;
        if (rel < workload::kWeek) {
            ++res.windowEvents[0];
            ++res.windowEvents[1];
            if (hit) {
                ++res.windowHits[0];
                ++res.windowHits[1];
            }
        } else if (rel < 2 * workload::kWeek) {
            ++res.windowEvents[1];
            if (hit)
                ++res.windowHits[1];
        }
        ++res.windowEvents[2];
        if (hit)
            ++res.windowHits[2];

        // The user clicks through; the cache learns (unless static).
        ps.recordClick(ev.pair, sink);
    }
    return res;
}

ReplayResult
ReplayDriver::run(const ReplayConfig &cfg) const
{
    ReplayResult out;
    workload::PopulationSampler sampler(pop_);
    Rng seeder(cfg.seed);

    // Every user's phone starts from the same installed cache, so
    // install it once and clone it per user.
    pc::nvm::FlashConfig fc;
    fc.capacity = 64 * kMiB;
    pc::nvm::FlashDevice imageFlash(fc);
    pc::simfs::FlashStore imageStore(imageFlash);
    core::PocketSearchConfig ps_cfg;
    ps_cfg.mode = cfg.mode;
    ps_cfg.lambda = cfg.lambda;
    core::PocketSearch image(universe_, imageStore, ps_cfg);
    SimTime sink = 0;
    image.loadCommunity(contents_, sink);

    for (int c = 0; c < 4; ++c) {
        const auto cls = UserClass(c);
        ClassReplayResult agg;
        agg.cls = cls;
        double sum_hit = 0.0, sum_w1 = 0.0, sum_w12 = 0.0;
        u64 nav_hits = 0, nonnav_hits = 0;

        for (u32 u = 0; u < cfg.usersPerClass; ++u) {
            Rng user_rng = seeder.fork();
            const UserProfile profile =
                sampler.sampleUserOfClass(user_rng, cls);
            // Evaluation users replay the month *after* the build
            // month: habits formed during the build month (epoch 0),
            // then churned by the new month's trends.
            workload::UserStream stream(universe_, profile,
                                        seeder.next(), /*epoch=*/0);
            stream.setEpoch(1);
            const auto events = stream.month(0);

            // Each user gets their own phone: flash + store + cache.
            pc::nvm::FlashDevice flash(imageFlash);
            pc::simfs::FlashStore store(imageStore, flash);
            core::PocketSearch ps(image, store);

            auto res = replayUser(profile, events, ps);
            sum_hit += res.hitRate();
            sum_w1 += res.windowHitRate(0);
            sum_w12 += res.windowHitRate(1);
            nav_hits += res.navHits;
            nonnav_hits += res.nonNavHits;
            out.users.push_back(std::move(res));
            ++agg.users;
        }

        if (agg.users) {
            agg.meanHitRate = sum_hit / double(agg.users);
            agg.meanWeek1HitRate = sum_w1 / double(agg.users);
            agg.meanWeeks12HitRate = sum_w12 / double(agg.users);
        }
        const u64 total_hits = nav_hits + nonnav_hits;
        if (total_hits) {
            agg.navHitShare = double(nav_hits) / double(total_hits);
            agg.nonNavHitShare = double(nonnav_hits) / double(total_hits);
        }
        out.classes[c] = agg;
    }

    double sum = 0.0;
    for (const auto &u : out.users)
        sum += u.hitRate();
    out.overallMeanHitRate =
        out.users.empty() ? 0.0 : sum / double(out.users.size());
    return out;
}

} // namespace pc::device
