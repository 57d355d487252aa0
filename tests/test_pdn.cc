/** @file Unit and property tests for the power-delivery network. */

#include <cmath>

#include <gtest/gtest.h>

#include "common/matrix.hh"
#include "floorplan/power8.hh"
#include "pdn/domain_pdn.hh"
#include "vreg/design.hh"

namespace tg {
namespace pdn {
namespace {

class PdnTest : public ::testing::Test
{
  protected:
    PdnTest()
        : chip(floorplan::buildPower8Chip()),
          dp(chip, 0, vreg::fivrDesign(), {})
    {
    }

    /** Node currents for a uniform power draw on domain 0. */
    std::vector<Amperes>
    domainLoad(Watts per_block) const
    {
        std::vector<Watts> bp(chip.plan.blocks().size(), 0.0);
        for (int b : chip.plan.domains()[0].blocks)
            bp[static_cast<std::size_t>(b)] = per_block;
        return dp.nodeCurrents(bp);
    }

    /**
     * Flat row-major transient window of `cycles` rows, stride
     * nodeCount(): `low` before cycle `step`, `high` from it on.
     */
    static std::vector<Amperes>
    stepWindow(const std::vector<Amperes> &low,
               const std::vector<Amperes> &high, std::size_t cycles,
               std::size_t step)
    {
        std::vector<Amperes> w;
        w.reserve(cycles * low.size());
        for (std::size_t c = 0; c < cycles; ++c) {
            const auto &row = c < step ? low : high;
            w.insert(w.end(), row.begin(), row.end());
        }
        return w;
    }

    std::size_t stride() const
    {
        return static_cast<std::size_t>(dp.nodeCount());
    }

    std::vector<int>
    allVrs() const
    {
        std::vector<int> v(static_cast<std::size_t>(dp.vrCount()));
        for (std::size_t i = 0; i < v.size(); ++i)
            v[i] = static_cast<int>(i);
        return v;
    }

    /**
     * Dense bordered reference matrix [[G, -B], [B^T, R]] the
     * production solver no longer assembles: the equivalence tests
     * rebuild it from the exported topology and solve it with the
     * dense LU.
     */
    Matrix
    borderedMatrix(const std::vector<int> &active,
                   bool transient) const
    {
        std::size_t n = static_cast<std::size_t>(dp.nodeCount());
        std::size_t m = active.size();
        Matrix a(n + m, n + m, 0.0);
        Matrix g = dp.gridConductance().toDense();
        for (std::size_t r = 0; r < n; ++r)
            for (std::size_t c = 0; c < n; ++c)
                a(r, c) = g(r, c);
        double r_out = vreg::fivrDesign().outputResistance;
        double dt = dp.params().cycleTime;
        for (std::size_t k = 0; k < m; ++k) {
            std::size_t node = static_cast<std::size_t>(
                dp.vrAttachNode(active[k]));
            a(node, n + k) = -1.0;
            a(n + k, node) = 1.0;
            a(n + k, n + k) = r_out;
            if (transient)
                a(n + k, n + k) +=
                    dp.branchInductance(active[k]) / dt;
        }
        if (transient)
            for (std::size_t i = 0; i < n; ++i)
                a(i, i) += dp.nodeDecaps()[i] / dt;
        return a;
    }

    floorplan::Chip chip;
    DomainPdn dp;
};

TEST_F(PdnTest, TopologyMatchesDomain)
{
    EXPECT_EQ(dp.vrCount(), 9);
    EXPECT_GT(dp.nodeCount(), 20);
    EXPECT_EQ(dp.domainId(), 0);
}

TEST_F(PdnTest, NoLoadMeansNoDroop)
{
    std::vector<Amperes> none(
        static_cast<std::size_t>(dp.nodeCount()), 0.0);
    auto v = dp.steadyVoltages(none);
    for (double volt : v)
        EXPECT_NEAR(volt, chip.params.vdd, 1e-9);
    EXPECT_NEAR(dp.steadyMaxNoise(none), 0.0, 1e-9);
}

TEST_F(PdnTest, LoadProducesDroop)
{
    auto load = domainLoad(1.0);
    double noise = dp.steadyMaxNoise(load);
    EXPECT_GT(noise, 0.0);
    EXPECT_LT(noise, 0.2);
}

TEST_F(PdnTest, SteadySolveIsLinear)
{
    auto l1 = domainLoad(0.5);
    auto l2 = domainLoad(1.0);
    auto v1 = dp.steadyVoltages(l1);
    auto v2 = dp.steadyVoltages(l2);
    double vdd = chip.params.vdd;
    for (std::size_t n = 0; n < v1.size(); ++n)
        EXPECT_NEAR(vdd - v2[n], 2.0 * (vdd - v1[n]), 1e-9);
}

TEST_F(PdnTest, MoreActiveVrsReduceSteadyNoise)
{
    auto load = domainLoad(1.0);
    dp.setActive({0});
    double one = dp.steadyMaxNoise(load);
    dp.setActive({0, 4, 8});
    double three = dp.steadyMaxNoise(load);
    dp.setActive(allVrs());
    double nine = dp.steadyMaxNoise(load);
    EXPECT_GT(one, three);
    EXPECT_GT(three, nine);
}

TEST_F(PdnTest, CurrentConservationAtSteadyState)
{
    // Sum of node currents equals the total the blocks draw.
    auto load = domainLoad(1.0);
    double total = 0.0;
    for (double i : load)
        total += i;
    Watts domain_power = 0.0;
    for (int b : chip.plan.domains()[0].blocks)
        (void)b, domain_power += 1.0;
    EXPECT_NEAR(total, domain_power / chip.params.vdd, 1e-9);
}

TEST_F(PdnTest, TransferResistancePositiveAndDistanceOrdered)
{
    // The droop a node sees from a far VR exceeds the droop from the
    // VR attached to it.
    for (int k = 0; k < dp.vrCount(); ++k) {
        int own = dp.vrAttachNode(k);
        double self = dp.transferResistance(own, k);
        EXPECT_GT(self, 0.0);
        for (int j = 0; j < dp.vrCount(); ++j) {
            if (j == k)
                continue;
            EXPECT_GE(dp.transferResistance(dp.vrAttachNode(j), k),
                      self - 1e-12);
        }
    }
}

TEST_F(PdnTest, TransientConstantLoadMatchesSteady)
{
    auto load = domainLoad(1.0);
    auto window = stepWindow(load, load, 400, 0);
    auto res = dp.transientWindow(window.data(), 400, stride(), 200);
    EXPECT_NEAR(res.maxNoiseFrac, dp.steadyMaxNoise(load), 5e-3);
    EXPECT_EQ(res.analysedCycles, 200);
}

TEST_F(PdnTest, LoadStepCausesTransientDroop)
{
    auto low = domainLoad(0.4);
    auto high = domainLoad(1.6);
    auto window = stepWindow(low, high, 600, 300);
    auto res =
        dp.transientWindow(window.data(), 600, stride(), 100, true);
    double steady_high = dp.steadyMaxNoise(high);
    // The inductive branch forces an excursion past the new steady
    // level right after the step.
    EXPECT_GT(res.maxNoiseFrac, steady_high * 1.2);
    ASSERT_EQ(res.trace.size(), 600u);
    // ...and the worst cycle sits shortly after the step.
    std::size_t worst = 0;
    for (std::size_t c = 1; c < res.trace.size(); ++c)
        if (res.trace[c] > res.trace[worst])
            worst = c;
    EXPECT_GE(worst, 300u);
    EXPECT_LT(worst, 450u);
}

TEST_F(PdnTest, EmergencyCyclesCounted)
{
    // Drive a load big enough to exceed the 10% threshold at steady
    // state: every analysed cycle is an emergency.
    dp.setActive({0});
    auto load = domainLoad(4.0);
    auto window = stepWindow(load, load, 300, 0);
    auto res = dp.transientWindow(window.data(), 300, stride(), 100);
    EXPECT_GT(dp.steadyMaxNoise(load), dp.params().emergencyFrac);
    EXPECT_EQ(res.emergencyCycles, res.analysedCycles);
}

TEST_F(PdnTest, FewerActiveBranchesDroopMoreOnSteps)
{
    auto low = domainLoad(0.5);
    auto high = domainLoad(1.5);
    auto window = stepWindow(low, high, 500, 250);

    dp.setActive(allVrs());
    double nine =
        dp.transientWindow(window.data(), 500, stride(), 100).maxNoiseFrac;
    dp.setActive({0, 1, 2});  // memory-side row only
    double three =
        dp.transientWindow(window.data(), 500, stride(), 100).maxNoiseFrac;
    EXPECT_GT(three, nine);
}

TEST_F(PdnTest, MemorySideSelectionIsNoisier)
{
    // Logic draws the current; supplying it from the far (memory)
    // row must droop more than from the logic rows.
    auto load = domainLoad(1.2);
    dp.setActive({0, 1, 2});  // bottom row (over the L2)
    double mem = dp.steadyMaxNoise(load);
    dp.setActive({6, 7, 8});  // top row (over ISU/EXU)
    double logic = dp.steadyMaxNoise(load);
    EXPECT_GT(mem, logic);
}

TEST_F(PdnTest, EstimateRanksSelectionsLikeTheSolver)
{
    auto load = domainLoad(1.2);
    std::vector<std::vector<int>> sets = {
        {0, 1, 2}, {6, 7, 8}, {0, 4, 8}, allVrs()};
    std::vector<double> est;
    std::vector<double> exact;
    for (const auto &s : sets) {
        est.push_back(dp.estimateNoise(s, load, 0.3));
        dp.setActive(s);
        exact.push_back(dp.steadyMaxNoise(load));
    }
    for (std::size_t a = 0; a < sets.size(); ++a)
        for (std::size_t b = 0; b < sets.size(); ++b)
            if (exact[a] > exact[b] * 1.15) {
                EXPECT_GT(est[a], est[b])
                    << "sets " << a << " vs " << b;
            }
}

TEST_F(PdnTest, LdoDesignLessTransientNoiseThanBuck)
{
    DomainPdn ldo(chip, 0, vreg::ldoDesign(), {});
    auto low = domainLoad(0.5);
    auto high = domainLoad(1.5);
    auto window = stepWindow(low, high, 500, 250);
    auto buck_res = dp.transientWindow(window.data(), 500, stride(), 100);
    auto ldo_res = ldo.transientWindow(window.data(), 500, stride(), 100);
    EXPECT_LT(ldo_res.maxNoiseFrac, buck_res.maxNoiseFrac);
}

// ---- Sparse-vs-dense equivalence ----------------------------------------
// The production path never assembles the bordered matrices; these
// tests do, and check the Schur/Woodbury solver against the dense LU.

TEST_F(PdnTest, SteadyMatchesDenseBorderedReference)
{
    auto load = domainLoad(1.3);
    double vdd = chip.params.vdd;
    std::vector<std::vector<int>> sets = {{0}, {0, 4, 8}, allVrs()};
    for (const auto &s : sets) {
        dp.setActive(s);
        auto sparse = dp.steadyVoltages(load);

        std::size_t n = static_cast<std::size_t>(dp.nodeCount());
        LuSolver dense(borderedMatrix(s, false));
        std::vector<double> rhs(n + s.size(), vdd);
        for (std::size_t i = 0; i < n; ++i)
            rhs[i] = -load[i];
        dense.solveInPlace(rhs);
        for (std::size_t i = 0; i < n; ++i)
            ASSERT_NEAR(sparse[i], rhs[i], 1e-9)
                << "set size " << s.size() << " node " << i;
    }
}

TEST_F(PdnTest, TransientMatchesDenseBorderedReference)
{
    std::vector<int> set = {0, 4, 8};
    dp.setActive(set);
    auto low = domainLoad(0.4);
    auto high = domainLoad(1.6);
    const std::size_t cycles = 240;
    auto window = stepWindow(low, high, cycles, 120);
    auto sparse =
        dp.transientWindow(window.data(), cycles, stride(), 40, true);

    // Dense bordered implicit Euler, state x = (V, I_branch).
    std::size_t n = stride();
    std::size_t m = set.size();
    double vdd = chip.params.vdd;
    double dt = dp.params().cycleTime;
    LuSolver steady(borderedMatrix(set, false));
    LuSolver trans(borderedMatrix(set, true));
    std::vector<double> x(n + m, vdd);
    for (std::size_t i = 0; i < n; ++i)
        x[i] = -window[i];
    steady.solveInPlace(x);
    std::vector<double> rhs(n + m);
    for (std::size_t cyc = 0; cyc < cycles; ++cyc) {
        for (std::size_t i = 0; i < n; ++i)
            rhs[i] = dp.nodeDecaps()[i] / dt * x[i] - window[cyc * n + i];
        for (std::size_t k = 0; k < m; ++k)
            rhs[n + k] =
                dp.branchInductance(set[k]) / dt * x[n + k] + vdd;
        trans.solveInPlace(rhs);
        x = rhs;
        // The trace maxes over load nodes; those are exactly the
        // nodes the uniform domain load maps current onto.
        double droop = 0.0;
        for (std::size_t i = 0; i < n; ++i)
            if (high[i] > 0.0)
                droop = std::max(droop, (vdd - x[i]) / vdd);
        ASSERT_NEAR(sparse.trace[cyc], droop, 1e-9)
            << "cycle " << cyc;
    }
}

TEST_F(PdnTest, TransferResistancesMatchDenseBorderedReference)
{
    std::size_t n = static_cast<std::size_t>(dp.nodeCount());
    double vdd = chip.params.vdd;
    for (int k = 0; k < dp.vrCount(); ++k) {
        LuSolver dense(borderedMatrix({k}, false));
        std::vector<double> rhs(n + 1);
        for (std::size_t j = 0; j < n; ++j) {
            std::fill(rhs.begin(), rhs.end(), 0.0);
            rhs[j] = -1.0;  // 1 A drawn at node j
            rhs[n] = vdd;
            auto v = dense.solve(rhs);
            ASSERT_NEAR(dp.transferResistance(static_cast<int>(j), k),
                        vdd - v[j], 1e-9)
                << "node " << j << " vr " << k;
        }
    }
}

TEST_F(PdnTest, CachedFactorisationMatchesFresh)
{
    auto load = domainLoad(1.1);
    auto window = stepWindow(load, load, 120, 0);

    dp.setActive({0, 4, 8});  // cache miss: built from scratch
    auto fresh_v = dp.steadyVoltages(load);
    double fresh_noise =
        dp.transientWindow(window.data(), 120, stride(), 40).maxNoiseFrac;

    std::uint64_t hits = dp.factorCacheHits();
    dp.setActive(allVrs());   // hit: cached since construction
    dp.setActive({0, 4, 8});  // hit
    EXPECT_EQ(dp.factorCacheHits(), hits + 2);
    auto cached_v = dp.steadyVoltages(load);
    for (std::size_t i = 0; i < cached_v.size(); ++i)
        EXPECT_EQ(cached_v[i], fresh_v[i]) << "node " << i;
    EXPECT_EQ(
        dp.transientWindow(window.data(), 120, stride(), 40).maxNoiseFrac,
        fresh_noise);

    // Rebuilding after a cache flush reproduces the factorisation
    // bit for bit (the determinism the parallel sweep relies on).
    std::uint64_t misses = dp.factorCacheMisses();
    dp.clearFactorCache();
    dp.setActive({0, 4, 8});
    EXPECT_EQ(dp.factorCacheMisses(), misses + 1);
    auto rebuilt_v = dp.steadyVoltages(load);
    for (std::size_t i = 0; i < rebuilt_v.size(); ++i)
        EXPECT_EQ(rebuilt_v[i], fresh_v[i]) << "node " << i;
}

TEST_F(PdnTest, LruEvictionKeepsRecentAndRebuildsExactly)
{
    constexpr std::size_t cap = DomainPdn::kFactorCacheCapacity;
    auto load = domainLoad(1.2);

    // Drive three more distinct sets than the cache holds (the
    // nonempty VR subsets in bitmask order); remember each set's
    // first-build solution.
    std::vector<std::vector<int>> sets;
    for (unsigned mask = 1; sets.size() < cap + 3; ++mask) {
        ASSERT_LT(mask, 1u << dp.vrCount());
        std::vector<int> set;
        for (int k = 0; k < dp.vrCount(); ++k)
            if ((mask >> k) & 1u)
                set.push_back(k);
        sets.push_back(set);
    }
    const std::size_t n = sets.size();
    std::vector<std::vector<Volts>> fresh;
    std::uint64_t misses0 = dp.factorCacheMisses();
    std::uint64_t hits0 = dp.factorCacheHits();
    for (const auto &s : sets) {
        dp.setActive(s);
        fresh.push_back(dp.steadyVoltages(load));
    }
    EXPECT_EQ(dp.factorCacheMisses(), misses0 + n);
    EXPECT_EQ(dp.factorCacheHits(), hits0);

    // The last `cap` sets are resident: revisiting them serves hits.
    // (sets[n-1] is still the active set, so touch the others first,
    // newest to oldest; recency after this block is sets[n-1], then
    // sets[3], sets[4], ..., sets[n-2].)
    for (std::size_t i = n - 1; i-- > 3;)
        dp.setActive(sets[i]);
    dp.setActive(sets[n - 1]);
    EXPECT_EQ(dp.factorCacheHits(), hits0 + cap);
    EXPECT_EQ(dp.factorCacheMisses(), misses0 + n);

    // A new insertion evicts exactly the least-recently-used entry:
    // sets[n-2] goes, sets[n-3] survives.
    dp.setActive(sets[0]);      // miss: evicts sets[n-2]
    dp.setActive(sets[n - 3]);  // still resident: hit
    EXPECT_EQ(dp.factorCacheHits(), hits0 + cap + 1);
    EXPECT_EQ(dp.factorCacheMisses(), misses0 + n + 1);
    dp.setActive(sets[n - 2]);  // evicted above: miss, rebuilt
    EXPECT_EQ(dp.factorCacheMisses(), misses0 + n + 2);

    // Rebuilt-after-eviction entries reproduce the first build bit
    // for bit — eviction can cost time but never changes results.
    auto rebuilt = dp.steadyVoltages(load);
    for (std::size_t i = 0; i < rebuilt.size(); ++i)
        EXPECT_EQ(rebuilt[i], fresh[n - 2][i]) << "node " << i;
    dp.setActive(sets[0]);  // resident from two inserts ago
    auto rebuilt0 = dp.steadyVoltages(load);
    for (std::size_t i = 0; i < rebuilt0.size(); ++i)
        EXPECT_EQ(rebuilt0[i], fresh[0][i]) << "node " << i;
}

TEST_F(PdnTest, SetActiveShortCircuitsUnchangedSets)
{
    dp.setActive({0, 4, 8});
    std::uint64_t hits = dp.factorCacheHits();
    std::uint64_t misses = dp.factorCacheMisses();
    // Same set, permuted and with a duplicate: no cache traffic.
    dp.setActive({8, 0, 4, 4});
    EXPECT_EQ(dp.factorCacheHits(), hits);
    EXPECT_EQ(dp.factorCacheMisses(), misses);
    std::vector<int> expect = {0, 4, 8};
    EXPECT_EQ(dp.active(), expect);
}

TEST_F(PdnTest, TransferResistanceIsFloored)
{
    // The accessor promises a strictly positive value so the noise
    // estimators may divide freely.
    for (int j = 0; j < dp.nodeCount(); ++j)
        for (int k = 0; k < dp.vrCount(); ++k)
            EXPECT_GE(dp.transferResistance(j, k),
                      DomainPdn::kTransferRFloor);
}

TEST_F(PdnTest, DeathOnBadInputs)
{
    EXPECT_DEATH(dp.setActive({}), "at least one");
    EXPECT_DEATH(dp.setActive({42}), "bad local VR");
    std::vector<Amperes> bad(3, 0.0);
    EXPECT_DEATH(dp.steadyVoltages(bad), "size mismatch");
}

/** Every domain of the chip builds a solvable PDN. */
class AllDomains : public ::testing::TestWithParam<int>
{
};

TEST_P(AllDomains, BuildsAndSolves)
{
    auto chip = floorplan::buildPower8Chip();
    DomainPdn pdn(chip, GetParam(), vreg::fivrDesign(), {});
    std::vector<Watts> bp(chip.plan.blocks().size(), 1.0);
    auto load = pdn.nodeCurrents(bp);
    double noise = pdn.steadyMaxNoise(load);
    EXPECT_GE(noise, 0.0);
    EXPECT_LT(noise, 0.5);
}

INSTANTIATE_TEST_SUITE_P(Domains, AllDomains,
                         ::testing::Values(0, 3, 7, 8, 12, 15));

} // namespace
} // namespace pdn
} // namespace tg
