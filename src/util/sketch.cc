#include "util/sketch.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace pc {

QuantileSketch::QuantileSketch(u32 k)
    : k_(k), coinState_(0x9e3779b97f4a7c15ull)
{
    pc_assert(k_ >= 8, "QuantileSketch needs k >= 8");
    levels_.emplace_back();
    levels_.front().items.reserve(k_);
    resetCapacities();
}

bool
QuantileSketch::coin()
{
    // xorshift64: fixed seed, so compaction choices replay identically
    // run to run (byte-identical bench output depends on it).
    coinState_ ^= coinState_ << 13;
    coinState_ ^= coinState_ >> 7;
    coinState_ ^= coinState_ << 17;
    return (coinState_ & 1) != 0;
}

std::size_t
QuantileSketch::levelCapacity(std::size_t level, std::size_t height) const
{
    // KLL geometry: the top level holds k items, each level below
    // shrinks by 2/3, floored at 2 so every level can still compact.
    const double c = 2.0 / 3.0;
    const double cap =
        std::ceil(double(k_) * std::pow(c, double(height - 1 - level)));
    return std::max<std::size_t>(2, std::size_t(cap));
}

void
QuantileSketch::resetCapacities()
{
    capacity_ = 0;
    for (std::size_t l = 0; l < levels_.size(); ++l) {
        levels_[l].capacity = levelCapacity(l, levels_.size());
        capacity_ += levels_[l].capacity;
    }
}

void
QuantileSketch::add(double x)
{
    if (n_ == 0) {
        min_ = x;
        max_ = x;
    } else {
        min_ = std::min(min_, x);
        max_ = std::max(max_, x);
    }
    ++n_;
    levels_.front().items.push_back(x);
    if (++retained_ > capacity_)
        compress();
}

void
QuantileSketch::mergeFrom(const QuantileSketch &other)
{
    if (other.n_ == 0)
        return;
    if (n_ == 0) {
        min_ = other.min_;
        max_ = other.max_;
    } else {
        min_ = std::min(min_, other.min_);
        max_ = std::max(max_, other.max_);
    }
    n_ += other.n_;
    if (levels_.size() < other.levels_.size()) {
        levels_.resize(other.levels_.size());
        resetCapacities();
    }
    for (std::size_t l = 0; l < other.levels_.size(); ++l) {
        const auto &from = other.levels_[l].items;
        levels_[l].items.insert(levels_[l].items.end(), from.begin(),
                                from.end());
    }
    retained_ += other.retained_;
    compress();
}

void
QuantileSketch::compress()
{
    // Compact the lowest level that is over its own budget; one such
    // level must exist whenever the total budget is exceeded.
    while (retained_ > capacity_) {
        std::size_t victim = levels_.size();
        for (std::size_t l = 0; l < levels_.size(); ++l) {
            if (levels_[l].items.size() > levels_[l].capacity) {
                victim = l;
                break;
            }
        }
        if (victim == levels_.size())
            return; // every level within budget (unreachable, but safe)
        compactLevel(victim);
    }
}

void
QuantileSketch::compactLevel(std::size_t level)
{
    pc_assert(level + 1 <= kMaxLevels, "QuantileSketch level overflow");
    if (level + 1 >= levels_.size()) {
        levels_.emplace_back();
        resetCapacities();
    }

    auto &buf = levels_[level].items;
    std::sort(buf.begin(), buf.end());

    // Odd count: one item stays behind at this level (weight must be
    // conserved — promoting an odd half would over/under count). The
    // coin picks which end survives so no systematic bias creeps in.
    std::size_t lo = 0;
    std::size_t hi = buf.size();
    if ((hi - lo) % 2 != 0) {
        if (coin())
            ++lo; // keep the smallest
        else
            --hi; // keep the largest
    }

    // Promote every other item of the even remainder; offset by coin.
    const std::size_t off = coin() ? 1 : 0;
    auto &up = levels_[level + 1].items;
    for (std::size_t i = lo + off; i < hi; i += 2)
        up.push_back(buf[i]);

    // The survivor of the odd-count rule stays; everything else dies.
    // The buffer keeps its capacity for the items still to come.
    if (lo == 1)
        buf.resize(1);
    else if (hi == buf.size() - 1)
        buf.erase(buf.begin(), buf.end() - 1);
    else
        buf.clear();
    // Half the even remainder went up, the other half died.
    retained_ -= (hi - lo) / 2;
    ++compactions_;
}

std::vector<std::pair<double, u64>>
QuantileSketch::weightedItems() const
{
    std::vector<std::pair<double, u64>> items;
    items.reserve(retained_);
    for (std::size_t l = 0; l < levels_.size(); ++l) {
        const u64 w = u64(1) << l;
        for (double v : levels_[l].items)
            items.emplace_back(v, w);
    }
    std::sort(items.begin(), items.end());
    return items;
}

double
QuantileSketch::quantile(double q) const
{
    if (n_ == 0)
        return 0.0;
    if (q <= 0.0)
        return min();
    if (q >= 1.0)
        return max();
    if (n_ == 1)
        return min();
    return interpolate(weightedItems(), q);
}

void
QuantileSketch::quantiles(std::span<const double> qs,
                          std::span<double> out) const
{
    pc_assert(out.size() == qs.size(),
              "QuantileSketch::quantiles: output size mismatch");
    std::vector<std::pair<double, u64>> items;
    for (std::size_t i = 0; i < qs.size(); ++i) {
        const double q = qs[i];
        if (n_ < 2 || q <= 0.0 || q >= 1.0) {
            out[i] = quantile(q); // the edge cases sort nothing
            continue;
        }
        if (items.empty())
            items = weightedItems();
        out[i] = interpolate(items, q);
    }
}

double
QuantileSketch::interpolate(const std::vector<std::pair<double, u64>> &items,
                            double q) const
{
    // Same rank arithmetic as EmpiricalCdf::quantile: target the
    // fractional order statistic q*(n-1) and interpolate between the
    // items covering ranks floor(t) and floor(t)+1. With all weights
    // at 1 this reproduces the exact empirical quantile bit for bit.
    const double pos = q * double(n_ - 1);
    const u64 r0 = u64(pos);
    const double frac = pos - double(r0);

    double v0 = items.back().first;
    double v1 = items.back().first;
    u64 cum = 0;
    for (std::size_t i = 0; i < items.size(); ++i) {
        cum += items[i].second;
        if (cum > r0) {
            v0 = items[i].first;
            v1 = (cum > r0 + 1 || i + 1 == items.size())
                     ? items[i].first
                     : items[i + 1].first;
            break;
        }
    }
    return v0 * (1.0 - frac) + v1 * frac;
}

} // namespace pc
