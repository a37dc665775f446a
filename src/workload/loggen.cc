#include "workload/loggen.h"

#include "util/logging.h"

namespace pc::workload {

LogGenerator::LogGenerator(const QueryUniverse &universe,
                           const PopulationConfig &pop,
                           const LogGenConfig &cfg)
    : universe_(universe), cfg_(cfg), nextMonthStart_(cfg.monthStart)
{
    PopulationSampler sampler(pop);
    profiles_ = sampler.samplePopulation(cfg_.numUsers);
    streams_.reserve(profiles_.size());
    Rng seeder(cfg_.seed);
    for (const auto &p : profiles_) {
        pc_assert(p.id <= ~u32(0), "user id ", p.id,
                  " does not fit LogRecord::user");
        streams_.emplace_back(universe_, p, seeder.next());
    }
}

SearchLog
LogGenerator::generateMonth()
{
    // Advance the trend epoch: each generated month sees slightly
    // rotated non-navigational popularity.
    for (auto &stream : streams_)
        stream.setEpoch(monthIndex_);
    SearchLog log(universe_);
    std::size_t total = 0;
    for (const auto &p : profiles_)
        total += p.monthlyVolume;
    log.reserve(total);

    for (std::size_t i = 0; i < streams_.size(); ++i) {
        const UserProfile &p = profiles_[i];
        UserStream &stream = streams_[i];
        stream.beginMonth(nextMonthStart_);
        for (u32 k = 0; k < p.monthlyVolume; ++k) {
            const StreamEvent ev = stream.next();
            log.add({p.id, ev.time, ev.pair, p.device});
        }
    }
    nextMonthStart_ += kMonth;
    ++monthIndex_;
    log.sortByTime();
    return log;
}

} // namespace pc::workload
