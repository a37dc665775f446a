#include "workload/stream.h"

#include <algorithm>
#include <cmath>

#include "util/hash.h"
#include "util/logging.h"

namespace pc::workload {

UserStream::UserStream(const QueryUniverse &universe,
                       const UserProfile &profile, u64 seed, u32 epoch)
    : universe_(universe), profile_(profile), rng_(seed), epoch_(epoch)
{
    pc_assert(profile_.monthlyVolume > 0, "user must submit queries");
    pc_assert(profile_.hotSetSize >= 1, "hot set cannot be empty");
    // The user's habitual pairs are drawn from community popularity:
    // everyone's habits are the popular destinations ("facebook",
    // "weather"), with an occasional personal oddity arriving through
    // the Zipf tail. Duplicates are kept — they weight the habit.
    hotSet_.reserve(profile_.hotSetSize);
    for (u32 i = 0; i < profile_.hotSetSize; ++i) {
        // The first few habits are everyone's navigational staples;
        // heavy users' additional habits diversify into topics, which
        // is what tilts their cache hits non-navigational (Figure 19).
        const double nav_share = i < 5
            ? -1.0
            : universe_.config().habitNavShare * 0.70;
        hotSet_.push_back(universe_.samplePairHabitual(
            rng_, profile_.device, nav_share, epoch_));
    }
}

void
UserStream::setEpoch(u32 epoch)
{
    if (epoch == epoch_)
        return;
    epoch_ = epoch;
    // Habit churn: with the new month's trends, a fraction of habitual
    // destinations is replaced by fresh habitual draws.
    for (std::size_t i = 0; i < hotSet_.size(); ++i) {
        if (!rng_.chance(0.25))
            continue;
        const double nav_share = i < 5
            ? -1.0
            : universe_.config().habitNavShare * 0.70;
        hotSet_[i] = universe_.samplePairHabitual(
            rng_, profile_.device, nav_share, epoch_);
    }
}

void
UserStream::beginMonth(SimTime start)
{
    monthStart_ = start;
    indexInMonth_ = 0;
}

std::size_t
UserStream::probe(const PairRef &p) const
{
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = mix64((u64(p.query) << 32) | p.result) & mask;
    while (slots_[i] != 0 && !(history_[slots_[i] - 1].pair == p))
        i = (i + 1) & mask;
    return i;
}

void
UserStream::growIndex()
{
    slots_.assign(std::max<std::size_t>(8, 2 * slots_.size()), 0);
    for (std::size_t pos = 0; pos < history_.size(); ++pos)
        slots_[probe(history_[pos].pair)] = u32(pos + 1);
}

void
UserStream::recordIssue(const PairRef &p)
{
    if (4 * (history_.size() + 1) > 3 * slots_.size())
        growIndex();
    const std::size_t i = probe(p);
    if (slots_[i] != 0) {
        ++history_[slots_[i] - 1].count;
        return;
    }
    pc_assert(history_.size() < ~u32(0), "history position overflows u32");
    history_.push_back({p, 1});
    slots_[i] = u32(history_.size());
}

PairRef
UserStream::pickFromHistory()
{
    pc_assert(!history_.empty(), "history pick with empty history");
    // Rich-get-richer: proportional to count^repeatSkew. Most entries
    // were issued once, and pow(1, y) is exactly 1 in IEEE 754, so the
    // shortcut leaves every sum and every pick unchanged.
    const double skew = profile_.repeatSkew;
    const auto weight = [skew](u32 count) {
        return count == 1 ? 1.0 : std::pow(double(count), skew);
    };
    double total = 0.0;
    for (const auto &h : history_)
        total += weight(h.count);
    double x = rng_.uniform() * total;
    for (const auto &h : history_) {
        x -= weight(h.count);
        if (x <= 0.0)
            return h.pair;
    }
    return history_.back().pair;
}

StreamEvent
UserStream::next()
{
    StreamEvent ev;
    // Spread the month's events evenly with jitter; event k of V lands
    // around day 28*k/V. Callers drawing past V events (flash-crowd
    // arrivals, which set their own times) get the window end: an
    // unclamped frac would overflow SimTime.
    const double frac =
        (double(indexInMonth_) + rng_.uniform()) /
        double(profile_.monthlyVolume);
    ev.time = monthStart_ + SimTime(std::min(frac, 1.0) * double(kMonth));

    const double repeat_mass = 1.0 - profile_.newRate;
    const double r = rng_.uniform();
    if (r < repeat_mass * profile_.favoritesBias) {
        // Habitual visit to the hot set.
        ev.pair = hotSet_[rng_.below(hotSet_.size())];
        ev.repeatDraw = true;
    } else if (r < repeat_mass && !history_.empty()) {
        // Episodic re-find of something searched earlier.
        ev.pair = pickFromHistory();
        ev.repeatDraw = true;
    } else {
        // Fresh exploration of the community's popularity model.
        ev.pair = universe_.samplePair(rng_, profile_.device, epoch_);
        ev.repeatDraw = false;
    }
    recordIssue(ev.pair);

    ++indexInMonth_;
    ++eventsGenerated_;
    return ev;
}

std::vector<StreamEvent>
UserStream::month(SimTime start)
{
    beginMonth(start);
    std::vector<StreamEvent> out;
    out.reserve(profile_.monthlyVolume);
    for (u32 i = 0; i < profile_.monthlyVolume; ++i)
        out.push_back(next());
    return out;
}

} // namespace pc::workload
