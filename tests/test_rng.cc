/** @file Unit tests for the deterministic random source. */

#include <bit>
#include <cmath>
#include <cstdint>
#include <random>

#include <gtest/gtest.h>

#include "common/rng.hh"

namespace tg {
namespace {

std::uint64_t
bits(double x)
{
    return std::bit_cast<std::uint64_t>(x);
}

TEST(Rng, WordConversionMatchesTheCast)
{
    // The exact edges of a u64 -> double conversion: small words,
    // the first odd words a double cannot hold, the sign bit alone,
    // and the top of the range, where 2^64 - 1024 is the midpoint
    // that rounds (to even) up to 2^64.
    const std::uint64_t two53 = std::uint64_t{1} << 53;
    const std::uint64_t top = ~std::uint64_t{0};
    for (std::uint64_t w : {std::uint64_t{0}, std::uint64_t{1}, two53 - 1,
                            two53 + 1, std::uint64_t{1} << 63, top - 1024,
                            top - 1023, top})
        EXPECT_EQ(bits(wordToDouble(w)), bits(static_cast<double>(w)))
            << "word " << w;

    // Canonical values stay below 1: the last two words scale to
    // exactly 1 and clamp to the largest double below it.
    const double below_one = std::nextafter(1.0, 0.0);
    EXPECT_EQ(static_cast<double>(top - 1025) * 0x1p-64, below_one);
    for (std::uint64_t w : {top - 1023, top}) {
        EXPECT_EQ(static_cast<double>(w) * 0x1p-64, 1.0);
        EXPECT_EQ(bits(wordToCanonical(w)), bits(below_one));
    }
    EXPECT_EQ(bits(wordToCanonical(top - 1024)), bits(below_one));
    EXPECT_EQ(bits(wordToCanonical(0)), bits(0.0));
    EXPECT_EQ(wordToCanonical(std::uint64_t{1} << 63), 0.5);
}

#ifdef __GLIBCXX__

/** A generator that returns one fixed word, to probe std at an edge. */
struct FixedWord
{
    using result_type = std::uint64_t;
    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~result_type{0}; }
    result_type operator()() { return word; }
    result_type word;
};

TEST(Rng, CanonicalMatchesLibstdcxxAtEdges)
{
    const std::uint64_t two53 = std::uint64_t{1} << 53;
    const std::uint64_t top = ~std::uint64_t{0};
    for (std::uint64_t w : {std::uint64_t{0}, std::uint64_t{1}, two53 - 1,
                            two53 + 1, std::uint64_t{1} << 63, top - 1024,
                            top - 1023, top}) {
        FixedWord g{w};
        EXPECT_EQ(bits(wordToCanonical(w)),
                  bits(std::generate_canonical<double, 53>(g)))
            << "word " << w;
    }
}

TEST(Rng, DrawsMatchLibstdcxxDistributions)
{
    // Rng re-implements libstdc++'s uniform_real, bernoulli and
    // (fresh per call) normal distributions: every draw must carry
    // the std distribution's bits on an engine with the same seed,
    // and the two engines must stay in step.
    const double los[] = {0.0, -3.5, 1e-3, 2.0};
    const double his[] = {1.0, 7.25, 2e-3, 5.0};
    const double ps[] = {0.0, 1e-4, 0.3, 0.7, 1.0};
    const double means[] = {0.0, 3.0, -1e3};
    const double sigmas[] = {1.0, 0.01, 2.0, 1e-6};
    for (std::uint64_t seed : {std::uint64_t{1}, std::uint64_t{42},
                               std::uint64_t{0x9e3779b97f4a7c15}}) {
        Rng rng(seed);
        std::mt19937_64 ref(seed);
        for (int i = 0; i < 40000; ++i) {
            const int k = i / 4;
            switch (i % 4) {
              case 0:
                ASSERT_EQ(bits(rng.uniform()),
                          bits(std::uniform_real_distribution<double>(
                              0.0, 1.0)(ref)))
                    << "seed " << seed << " draw " << i;
                break;
              case 1: {
                const double lo = los[k % 4];
                const double hi = his[k % 4];
                ASSERT_EQ(bits(rng.uniform(lo, hi)),
                          bits(std::uniform_real_distribution<double>(
                              lo, hi)(ref)))
                    << "seed " << seed << " draw " << i;
                break;
              }
              case 2: {
                const double p = ps[k % 5];
                ASSERT_EQ(rng.bernoulli(p),
                          std::bernoulli_distribution(p)(ref))
                    << "seed " << seed << " draw " << i;
                break;
              }
              default: {
                const double mean = means[k % 3];
                const double sigma = sigmas[k % 4];
                ASSERT_EQ(bits(rng.gaussian(mean, sigma)),
                          bits(std::normal_distribution<double>(
                              mean, sigma)(ref)))
                    << "seed " << seed << " draw " << i;
              }
            }
        }
        // In step: a fork seeds from the next engine word.
        Rng child = rng.fork(0);
        Rng expect(ref());
        EXPECT_EQ(bits(child.uniform()), bits(expect.uniform()));
    }
}

#endif // __GLIBCXX__

TEST(Rng, SameSeedSameStream)
{
    Rng a(42);
    Rng b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.uniform(), b.uniform());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1);
    Rng b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        if (a.uniform() == b.uniform())
            ++same;
    EXPECT_LT(same, 5);
}

TEST(Rng, UniformRangeRespected)
{
    Rng rng(3);
    for (int i = 0; i < 1000; ++i) {
        double x = rng.uniform(2.0, 5.0);
        EXPECT_GE(x, 2.0);
        EXPECT_LT(x, 5.0);
    }
}

TEST(Rng, UniformIntInclusiveBounds)
{
    Rng rng(4);
    bool saw_lo = false;
    bool saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        int v = rng.uniformInt(1, 4);
        EXPECT_GE(v, 1);
        EXPECT_LE(v, 4);
        saw_lo |= v == 1;
        saw_hi |= v == 4;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, GaussianMoments)
{
    Rng rng(5);
    double sum = 0.0;
    double sq = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        double x = rng.gaussian(3.0, 2.0);
        sum += x;
        sq += x * x;
    }
    double mean = sum / n;
    double var = sq / n - mean * mean;
    EXPECT_NEAR(mean, 3.0, 0.1);
    EXPECT_NEAR(var, 4.0, 0.25);
}

TEST(Rng, BernoulliFrequency)
{
    Rng rng(6);
    int hits = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        if (rng.bernoulli(0.3))
            ++hits;
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, ForkedChildrenAreIndependent)
{
    Rng parent(7);
    Rng c1 = parent.fork(1);
    Rng c2 = parent.fork(1);  // same salt, later parent state
    // Children from different fork calls should not produce the
    // same stream.
    int same = 0;
    for (int i = 0; i < 50; ++i)
        if (c1.uniform() == c2.uniform())
            ++same;
    EXPECT_LT(same, 3);
}

TEST(Rng, ForkIsDeterministicGivenParentState)
{
    Rng p1(11);
    Rng p2(11);
    Rng c1 = p1.fork(9);
    Rng c2 = p2.fork(9);
    for (int i = 0; i < 20; ++i)
        EXPECT_EQ(c1.uniform(), c2.uniform());
}

} // namespace
} // namespace tg
