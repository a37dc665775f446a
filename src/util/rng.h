/**
 * @file
 * Deterministic random number generation for workload synthesis.
 *
 * Everything in the repository that draws randomness goes through Rng so
 * that a single seed reproduces an entire experiment bit-for-bit. The
 * engine is xoshiro256**, seeded through SplitMix64.
 */

#ifndef PC_UTIL_RNG_H
#define PC_UTIL_RNG_H

#include <cmath>
#include <vector>

#include "util/types.h"

namespace pc {

/**
 * Small, fast, deterministic PRNG (xoshiro256**).
 *
 * Not cryptographic; plenty for workload modelling. Copyable so that
 * sub-streams can be forked with fork().
 */
class Rng
{
  public:
    /** Seed through SplitMix64 so any 64-bit seed gives a good state. */
    explicit Rng(u64 seed = 0x9e3779b97f4a7c15ull);

    /** Next raw 64-bit value. */
    u64 next();

    /**
     * Raw draws consumed so far (every helper funnels through next()).
     * Experiments use the count to prove a feature is draw-neutral:
     * equal draws before/after means the fault stream cannot shift.
     */
    u64 draws() const { return draws_; }

    /** Uniform double in [0, 1). */
    double uniform();

    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi);

    /** Uniform integer in [0, n). @pre n > 0. */
    u64 below(u64 n);

    /** Bernoulli trial with success probability p. */
    bool chance(double p);

    /** Exponentially distributed value with the given mean. */
    double exponential(double mean);

    /** Pick an index proportionally to non-negative weights. */
    std::size_t weighted(const std::vector<double> &weights);

    /** Fork an independent, deterministic sub-stream. */
    Rng fork();

    /** Fisher-Yates shuffle of an arbitrary sequence. */
    template <typename Seq>
    void
    shuffle(Seq &seq)
    {
        if (seq.size() < 2)
            return;
        for (std::size_t i = seq.size() - 1; i > 0; --i) {
            std::size_t j = std::size_t(below(i + 1));
            using std::swap;
            swap(seq[i], seq[j]);
        }
    }

  private:
    u64 s_[4];
    u64 draws_ = 0;
};

} // namespace pc

#endif // PC_UTIL_RNG_H
