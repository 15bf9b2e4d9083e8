// Deterministic random number generation for reproducible experiments.
//
// All stochastic behaviour in the simulator draws from an Rng seeded per
// experiment, so every bench and test is reproducible run-to-run. The
// core generator is xoshiro256** (public domain, Blackman & Vigna),
// seeded via SplitMix64.

#pragma once

#include <cassert>
#include <cmath>
#include <cstdint>

namespace catapult {

/** xoshiro256** PRNG with convenience distributions. */
class Rng {
  public:
    explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull);

    /** Next raw 64-bit value. */
    std::uint64_t Next();

    /** Uniform double in [0, 1). */
    double NextDouble();

    /** Uniform integer in [0, bound). `bound` must be > 0. */
    std::uint64_t NextBounded(std::uint64_t bound);

    /** Uniform integer in [lo, hi] inclusive. */
    std::int64_t UniformInt(std::int64_t lo, std::int64_t hi);

    /** Uniform double in [lo, hi). */
    double Uniform(double lo, double hi);

    /** Bernoulli trial with probability `p`. */
    bool Chance(double p);

    /** Exponential variate with the given mean. */
    double Exponential(double mean);

    /** Standard normal via Box-Muller (cached pair). */
    double Normal();

    /** Normal with mean/stddev. */
    double Normal(double mean, double stddev) { return mean + stddev * Normal(); }

    /** Log-normal parameterized by the underlying normal's mu/sigma. */
    double LogNormal(double mu, double sigma);

    /** Geometric number of failures before first success, p in (0,1]. */
    std::uint64_t Geometric(double p);

    /**
     * The same draw for p in (0,1), given `log_q` = GeometricLogQ(p).
     * Callers with a fixed p compute the denominator once.
     */
    std::uint64_t GeometricFromLogQ(double log_q);

    /** log1p(-p), the denominator of a geometric draw, from libm. */
    static double GeometricLogQ(double p);

    /** Poisson variate (inversion for small lambda, PTRS otherwise). */
    std::uint64_t Poisson(double lambda);

    /** Derive an independent child generator (for per-component streams). */
    Rng Fork();

  private:
    static std::uint64_t Rotl(std::uint64_t x, int k) {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t state_[4];
    bool have_cached_normal_ = false;
    double cached_normal_ = 0.0;
};

// The draws below run once or more per hit-vector tuple, so they are
// inline here rather than out of line in rng.cc.

inline std::uint64_t Rng::Next() {
    const std::uint64_t result = Rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
}

inline double Rng::NextDouble() {
    // 53 high-quality bits -> [0, 1).
    return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

inline std::uint64_t Rng::NextBounded(std::uint64_t bound) {
    assert(bound > 0);
    // Lemire's nearly-divisionless bounded generation.
    __uint128_t m = static_cast<__uint128_t>(Next()) * bound;
    auto low = static_cast<std::uint64_t>(m);
    if (low < bound) {
        const std::uint64_t threshold = -bound % bound;
        while (low < threshold) {
            m = static_cast<__uint128_t>(Next()) * bound;
            low = static_cast<std::uint64_t>(m);
        }
    }
    return static_cast<std::uint64_t>(m >> 64);
}

inline bool Rng::Chance(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return NextDouble() < p;
}

inline std::uint64_t Rng::GeometricFromLogQ(double log_q) {
    assert(log_q < 0.0);
    double u;
    do {
        u = NextDouble();
    } while (u <= 0.0);
    return static_cast<std::uint64_t>(std::floor(std::log(u) / log_q));
}

}  // namespace catapult
