#include "common/rng.h"

#include <cassert>
#include <cmath>

namespace catapult {

namespace {

std::uint64_t SplitMix64(std::uint64_t& x) {
    x += 0x9E3779B97F4A7C15ull;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
    std::uint64_t sm = seed;
    for (auto& s : state_) s = SplitMix64(sm);
}

std::int64_t Rng::UniformInt(std::int64_t lo, std::int64_t hi) {
    assert(lo <= hi);
    const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
    return lo + static_cast<std::int64_t>(NextBounded(span));
}

double Rng::Uniform(double lo, double hi) {
    return lo + (hi - lo) * NextDouble();
}

double Rng::Exponential(double mean) {
    double u;
    do {
        u = NextDouble();
    } while (u <= 0.0);
    return -mean * std::log(u);
}

double Rng::Normal() {
    if (have_cached_normal_) {
        have_cached_normal_ = false;
        return cached_normal_;
    }
    double u1;
    do {
        u1 = NextDouble();
    } while (u1 <= 0.0);
    const double u2 = NextDouble();
    const double r = std::sqrt(-2.0 * std::log(u1));
    const double theta = 2.0 * M_PI * u2;
    cached_normal_ = r * std::sin(theta);
    have_cached_normal_ = true;
    return r * std::cos(theta);
}

double Rng::LogNormal(double mu, double sigma) {
    return std::exp(mu + sigma * Normal());
}

std::uint64_t Rng::Geometric(double p) {
    assert(p > 0.0 && p <= 1.0);
    if (p >= 1.0) return 0;
    return GeometricFromLogQ(GeometricLogQ(p));
}

double Rng::GeometricLogQ(double p) {
    // Through a volatile, so no build folds log1p of a constant p at
    // compile time: a folded value is rounded by the compiler's own
    // arithmetic and may differ from libm in the last bit.
    const volatile double q = -p;
    return std::log1p(q);
}

std::uint64_t Rng::Poisson(double lambda) {
    assert(lambda >= 0.0);
    if (lambda < 30.0) {
        // Knuth inversion.
        const double limit = std::exp(-lambda);
        double product = NextDouble();
        std::uint64_t n = 0;
        while (product > limit) {
            product *= NextDouble();
            ++n;
        }
        return n;
    }
    // Normal approximation with continuity correction is adequate for the
    // load-generator use cases (lambda >> 1).
    const double x = Normal(lambda, std::sqrt(lambda));
    return x < 0.0 ? 0 : static_cast<std::uint64_t>(x + 0.5);
}

Rng Rng::Fork() {
    return Rng(Next() ^ 0xA5A5A5A55A5A5A5Aull);
}

}  // namespace catapult
