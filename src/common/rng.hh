/**
 * @file
 * Seeded random number generation.
 *
 * Every stochastic component in the library draws from an explicitly
 * seeded Rng so that simulations are reproducible bit-for-bit. Wall
 * clock and std::random_device are never used.
 */

#ifndef TG_COMMON_RNG_HH
#define TG_COMMON_RNG_HH

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <random>
#include <string>

namespace tg {

/**
 * Order-sensitive 64-bit seed mixer: combines two seeds into one with
 * good avalanche behaviour. mixSeed(a, b) != mixSeed(b, a), which is
 * what lets callers build distinct per-subsystem streams from a
 * master seed and a salt.
 */
inline std::uint64_t
mixSeed(std::uint64_t a, std::uint64_t b)
{
    return (a ^ (b + 0x9e3779b97f4a7c15ull + (a << 6) + (a >> 2))) *
           0xbf58476d1ce4e5b9ull;
}

/** FNV-1a hash of a string, for seeding per-benchmark streams. */
inline std::uint64_t
hashString(const std::string &s)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (char c : s) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ull;
    }
    return h;
}

/**
 * static_cast<double>(w) without its branch: before AVX-512, x86-64
 * converts only signed 64-bit integers, so the compiler tests the
 * sign bit of an unsigned word and takes a shift-and-double path when
 * it is set, which for a uniform word mispredicts half the time. Each
 * 32-bit half converts exactly, the high half's scaling by 2^32 is
 * exact, and the one addition rounds the exact sum w once, to
 * nearest even: the correctly rounded value the cast gives.
 */
inline double
wordToDouble(std::uint64_t w)
{
    return static_cast<double>(static_cast<std::uint32_t>(w >> 32)) *
               0x1p32 +
           static_cast<double>(static_cast<std::uint32_t>(w));
}

/**
 * libstdc++'s std::generate_canonical<double, 53> over a 64-bit
 * engine: one word scaled by 2^-64 (exact), with a result that
 * rounded up to 1 clamped to the largest double below 1.
 */
inline double
wordToCanonical(std::uint64_t w)
{
    return std::min(wordToDouble(w) * 0x1p-64,
                    std::nextafter(1.0, 0.0));
}

/**
 * Deterministic random source wrapping std::mt19937_64.
 *
 * Provides the handful of distributions the simulator needs. A child
 * generator can be forked deterministically with fork() so independent
 * subsystems do not perturb each other's streams.
 *
 * uniform(), bernoulli() and gaussian() are libstdc++'s own
 * algorithms (uniform_real_distribution, bernoulli_distribution and
 * a fresh normal_distribution per call), written over
 * wordToCanonical(), so they return the std distributions' bits
 * draw for draw (tests/test_rng.cc) without the conversion branch.
 */
class Rng
{
  public:
    /** Construct from an explicit 64-bit seed. */
    explicit Rng(std::uint64_t seed) : engine(seed) {}

    /** Uniform double in [0, 1). */
    double uniform() { return wordToCanonical(engine()); }

    /** Uniform double in [lo, hi). */
    double
    uniform(double lo, double hi)
    {
        return uniform() * (hi - lo) + lo;
    }

    /** Uniform integer in [lo, hi] inclusive. */
    int
    uniformInt(int lo, int hi)
    {
        return std::uniform_int_distribution<int>(lo, hi)(engine);
    }

    /**
     * Normal deviate with the given mean and standard deviation: the
     * Marsaglia polar method. A pair yields two deviates; like a
     * fresh std::normal_distribution, this returns y's and drops x's.
     */
    double
    gaussian(double mean, double sigma)
    {
        double x, y, r2;
        do {
            x = 2.0 * uniform() - 1.0;
            y = 2.0 * uniform() - 1.0;
            r2 = x * x + y * y;
        } while (r2 > 1.0 || r2 == 0.0);
        const double mult = std::sqrt(-2 * std::log(r2) / r2);
        return y * mult * sigma + mean;
    }

    /** Bernoulli trial with probability p of returning true. */
    bool bernoulli(double p) { return uniform() < p; }

    /**
     * Fork a child generator whose stream is independent of the
     * parent's future draws. The child seed mixes the parent's next
     * output with a caller-supplied salt, so forking the same salt
     * twice in sequence yields distinct children.
     */
    Rng
    fork(std::uint64_t salt)
    {
        std::uint64_t s = engine() ^ (salt * 0x9e3779b97f4a7c15ull);
        return Rng(s);
    }

  private:
    std::mt19937_64 engine;
};

} // namespace tg

#endif // TG_COMMON_RNG_HH
