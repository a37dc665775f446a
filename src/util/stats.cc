#include "util/stats.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace pc {

void
RunningStat::add(double x)
{
    ++n_;
    sum_ += x;
    if (n_ == 1) {
        mean_ = x;
        min_ = x;
        max_ = x;
        m2_ = 0.0;
        return;
    }
    const double delta = x - mean_;
    mean_ += delta / double(n_);
    m2_ += delta * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
}

void
RunningStat::merge(const RunningStat &other)
{
    if (other.n_ == 0)
        return;
    if (n_ == 0) {
        *this = other;
        return;
    }
    // Chan et al. pairwise combine: exact counts/sums, numerically
    // stable M2 update.
    const u64 n = n_ + other.n_;
    const double delta = other.mean_ - mean_;
    m2_ += other.m2_ +
           delta * delta * double(n_) * double(other.n_) / double(n);
    mean_ += delta * double(other.n_) / double(n);
    n_ = n;
    sum_ += other.sum_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
}

double
RunningStat::variance() const
{
    if (n_ < 2)
        return 0.0;
    return m2_ / double(n_ - 1);
}

double
RunningStat::stddev() const
{
    return std::sqrt(variance());
}

void
EmpiricalCdf::add(double x)
{
    xs_.push_back(x);
    sorted_ = false;
}

void
EmpiricalCdf::add(const std::vector<double> &xs)
{
    xs_.insert(xs_.end(), xs.begin(), xs.end());
    sorted_ = false;
}

void
EmpiricalCdf::ensureSorted() const
{
    if (!sorted_) {
        std::sort(xs_.begin(), xs_.end());
        sorted_ = true;
    }
}

double
EmpiricalCdf::at(double x) const
{
    if (xs_.empty())
        return 0.0;
    ensureSorted();
    const auto it = std::upper_bound(xs_.begin(), xs_.end(), x);
    return double(it - xs_.begin()) / double(xs_.size());
}

double
EmpiricalCdf::quantile(double q) const
{
    pc_assert(!xs_.empty(), "quantile of empty CDF");
    pc_assert(q >= 0.0 && q <= 1.0, "quantile q out of [0,1]");
    ensureSorted();
    if (xs_.size() == 1)
        return xs_.front();
    const double pos = q * double(xs_.size() - 1);
    const std::size_t i = std::size_t(pos);
    if (i + 1 >= xs_.size())
        return xs_.back();
    const double frac = pos - double(i);
    return xs_[i] * (1.0 - frac) + xs_[i + 1] * frac;
}

CumulativeShare
CumulativeShare::fromVolumes(std::vector<u64> volumes)
{
    CumulativeShare cs;
    cs.sortedVolumes = std::move(volumes);
    std::sort(cs.sortedVolumes.begin(), cs.sortedVolumes.end(),
              std::greater<u64>());
    cs.total = 0;
    for (u64 v : cs.sortedVolumes)
        cs.total += v;
    return cs;
}

double
CumulativeShare::shareOfTop(std::size_t k) const
{
    if (total == 0)
        return 0.0;
    k = std::min(k, sortedVolumes.size());
    u64 acc = 0;
    for (std::size_t i = 0; i < k; ++i)
        acc += sortedVolumes[i];
    return double(acc) / double(total);
}

std::size_t
CumulativeShare::topForShare(double share) const
{
    if (total == 0)
        return 0;
    const double target = share * double(total);
    double acc = 0.0;
    for (std::size_t i = 0; i < sortedVolumes.size(); ++i) {
        acc += double(sortedVolumes[i]);
        if (acc >= target)
            return i + 1;
    }
    return sortedVolumes.size();
}

} // namespace pc
