#include "util/rng.h"

#include "util/hash.h"
#include "util/logging.h"

namespace pc {

namespace {

constexpr u64
rotl(u64 x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

Rng::Rng(u64 seed)
{
    // SplitMix64 expansion of the seed into four state words.
    u64 x = seed;
    for (auto &w : s_) {
        x += 0x9e3779b97f4a7c15ull;
        w = mix64(x);
    }
    // xoshiro cannot run from the all-zero state.
    if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0)
        s_[0] = kFnvOffset;
}

u64
Rng::next()
{
    ++draws_;
    const u64 result = rotl(s_[1] * 5, 7) * 9;
    const u64 t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
}

double
Rng::uniform()
{
    // 53 high bits -> double in [0, 1).
    return double(next() >> 11) * 0x1.0p-53;
}

double
Rng::uniform(double lo, double hi)
{
    return lo + (hi - lo) * uniform();
}

u64
Rng::below(u64 n)
{
    pc_assert(n > 0, "Rng::below(0)");
    // Rejection to remove modulo bias.
    const u64 threshold = (0 - n) % n;
    for (;;) {
        u64 r = next();
        if (r >= threshold)
            return r % n;
    }
}

bool
Rng::chance(double p)
{
    if (p <= 0.0)
        return false;
    if (p >= 1.0)
        return true;
    return uniform() < p;
}

double
Rng::exponential(double mean)
{
    pc_assert(mean > 0.0, "exponential mean must be positive");
    double u;
    do {
        u = uniform();
    } while (u <= 0.0);
    return -mean * std::log(u);
}

std::size_t
Rng::weighted(const std::vector<double> &weights)
{
    pc_assert(!weights.empty(), "weighted() on empty weight vector");
    double total = 0.0;
    for (double w : weights) {
        pc_assert(w >= 0.0, "weighted() needs non-negative weights");
        total += w;
    }
    pc_assert(total > 0.0, "weighted() needs a positive weight sum");
    double r = uniform() * total;
    for (std::size_t i = 0; i < weights.size(); ++i) {
        r -= weights[i];
        if (r <= 0.0)
            return i;
    }
    return weights.size() - 1;
}

Rng
Rng::fork()
{
    return Rng(next() ^ 0xd2b74407b1ce6e93ull);
}

} // namespace pc
