#include "util/zipf.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace pc {

namespace {

/**
 * Core of Hormann & Derflinger rejection-inversion: the primitive of the
 * rank density x^-s, written with expm1/log1p-style guards so it stays
 * accurate for s near 1 (where the closed form degenerates to log).
 */
double
hIntegralFormula(double logx, double s)
{
    const double t = logx * (1.0 - s);
    // helper1(t) = expm1(t)/t with the t -> 0 limit of 1.
    const double helper1 = (std::fabs(t) > 1e-8) ? std::expm1(t) / t : 1.0;
    return logx * helper1;
}

/** Inverse of hIntegralFormula in x. */
double
hIntegralInverseFormula(double x, double s)
{
    double t = x * (1.0 - s);
    if (t < -1.0)
        t = -1.0; // guard rounding at the lower boundary
    // helper2(t) = log1p(t)/t with the t -> 0 limit of 1, so the result
    // is exp(log1p(t)/(1-s)) = (1 + x*(1-s))^(1/(1-s)).
    const double helper2 =
        (std::fabs(t) > 1e-8) ? std::log1p(t) / t : 1.0;
    return std::exp(x * helper2);
}

} // namespace

double
generalizedHarmonic(u64 n, double s)
{
    // Iterate largest-k (smallest term) first for summation accuracy.
    double sum = 0.0;
    for (u64 k = n; k >= 1; --k) {
        sum += std::pow(double(k), -s);
        if (k == 1)
            break;
    }
    return sum;
}

ZipfSampler::ZipfSampler(u64 n, double s)
    : n_(n), s_(s)
{
    pc_assert(n >= 1, "ZipfSampler needs n >= 1");
    pc_assert(s >= 0.0, "ZipfSampler needs s >= 0");
    hX1_ = hIntegral(1.5) - 1.0;
    hN_ = hIntegral(double(n_) + 0.5);
    harmonic_ = generalizedHarmonic(n_, s_);
    // A draw's only other transcendental calls are this bound's; the
    // table holds the very doubles acceptBound returns, so tabulated
    // and computed draws accept alike.
    bound_.resize(std::min(n_, kBoundTableRanks));
    for (u64 k = 1; k <= bound_.size(); ++k)
        bound_[k - 1] = acceptBound(k);
}

double
ZipfSampler::hIntegral(double x) const
{
    return hIntegralFormula(std::log(x), s_);
}

double
ZipfSampler::hIntegralInverse(double x) const
{
    return hIntegralInverseFormula(x, s_);
}

double
ZipfSampler::h(double x) const
{
    return std::exp(-s_ * std::log(x));
}

double
ZipfSampler::acceptBound(u64 k) const
{
    return hIntegral(double(k) + 0.5) - h(double(k));
}

u64
ZipfSampler::sample(Rng &rng) const
{
    if (n_ == 1)
        return 0;
    // Hormann & Derflinger rejection-inversion; O(1) per draw.
    for (;;) {
        const double u = hN_ + rng.uniform() * (hX1_ - hN_);
        const double x = hIntegralInverse(u);
        u64 k64 = u64(x + 0.5);
        if (k64 < 1)
            k64 = 1;
        else if (k64 > n_)
            k64 = n_;
        const double bound =
            k64 <= bound_.size() ? bound_[k64 - 1] : acceptBound(k64);
        if (u >= bound)
            return k64 - 1; // 0-based rank
    }
}

double
ZipfSampler::pmf(u64 rank) const
{
    pc_assert(rank < n_, "pmf rank out of range");
    return std::pow(double(rank + 1), -s_) / harmonic_;
}

double
ZipfSampler::cdf(u64 rank) const
{
    pc_assert(rank < n_, "cdf rank out of range");
    return generalizedHarmonic(rank + 1, s_) / harmonic_;
}

u64
ZipfSampler::headForShare(double share) const
{
    pc_assert(share > 0.0 && share <= 1.0, "share must be in (0, 1]");
    const double target = share * harmonic_;
    double acc = 0.0;
    for (u64 k = 1; k <= n_; ++k) {
        acc += std::pow(double(k), -s_);
        if (acc >= target)
            return k;
    }
    return n_;
}

double
solveZipfExponent(u64 n, u64 head, double share)
{
    pc_assert(head >= 1 && head < n, "head must be inside the support");
    pc_assert(share > 0.0 && share < 1.0, "share must be in (0, 1)");
    auto headShare = [&](double s) {
        return generalizedHarmonic(head, s) / generalizedHarmonic(n, s);
    };
    double lo = 0.4, hi = 3.0;
    // headShare is increasing in s for head << n.
    if (headShare(lo) >= share)
        return lo;
    if (headShare(hi) <= share)
        return hi;
    for (int iter = 0; iter < 60; ++iter) {
        const double mid = 0.5 * (lo + hi);
        if (headShare(mid) < share)
            lo = mid;
        else
            hi = mid;
    }
    return 0.5 * (lo + hi);
}

} // namespace pc
