/** @file Unit and property tests for the compact thermal model. */

#include <cmath>

#include <gtest/gtest.h>

#include "common/matrix.hh"
#include "floorplan/power8.hh"
#include "thermal/model.hh"

namespace tg {
namespace thermal {
namespace {

class ThermalTest : public ::testing::Test
{
  protected:
    ThermalTest() : chip(floorplan::buildMiniChip(2)), model(chip, {})
    {
    }

    std::vector<Watts>
    uniformBlockPower(Watts per_block) const
    {
        return std::vector<Watts>(chip.plan.blocks().size(),
                                  per_block);
    }

    std::vector<Watts>
    noVrLoss() const
    {
        return std::vector<Watts>(chip.plan.vrs().size(), 0.0);
    }

    floorplan::Chip chip;
    ThermalModel model;
};

TEST_F(ThermalTest, ZeroPowerSettlesAtAmbient)
{
    auto p = model.powerVector(uniformBlockPower(0.0), noVrLoss());
    auto temps = model.steadyState(p);
    for (double t : temps)
        EXPECT_NEAR(t, model.params().ambient, 1e-6);
}

TEST_F(ThermalTest, SteadyStateEnergyBalance)
{
    // In steady state every injected watt must leave through the
    // package: sum over nodes of G_amb * (T - T_amb) equals the
    // injected power. Verified indirectly: the area-weighted mean
    // rise equals P * R_total within the spreading tolerance.
    Watts per_block = 2.0;
    auto p = model.powerVector(uniformBlockPower(per_block),
                               noVrLoss());
    Watts total = 0.0;
    for (double v : p)
        total += v;
    auto temps = model.steadyState(p);
    double mean = 0.0;
    std::size_t n_die = static_cast<std::size_t>(
        model.params().gridW * model.params().gridH);
    for (std::size_t i = 0; i < n_die; ++i)
        mean += temps[i];
    mean /= static_cast<double>(n_die);

    double rise = mean - model.params().ambient;
    // R_total is bounded below by the convection resistance and
    // above by convection + the one-dimensional TIM/die stack over
    // the die area (lateral spreading only reduces it).
    double die_area = mm2ToM2(chip.plan.area());
    double r_stack =
        model.params().timThickness /
            (model.params().kTim * die_area) +
        model.params().dieThickness /
            (2.0 * model.params().kSilicon * die_area);
    // Heat entering the spreader under the (smaller) die must also
    // spread laterally through the copper before it can leave, which
    // adds a bounded constriction resistance.
    double r_spread_cu = 0.12;
    EXPECT_GT(rise, total * model.params().rConvection * 0.8);
    EXPECT_LT(rise, total * (model.params().rConvection + r_stack +
                             r_spread_cu) *
                        1.1);
}

TEST_F(ThermalTest, TransientConvergesToSteadyState)
{
    // Implicit Euler's fixed point is the steady state at any step, so
    // 2 s of simulated time take 2,000 steps of 1 ms instead of
    // 200,000 of the default 10 us (TransientIsMonotoneForStepInput
    // covers the default step).
    ThermalParams coarse_prm;
    coarse_prm.step = 1e-3;
    ThermalModel coarse(chip, coarse_prm);
    auto p = coarse.powerVector(uniformBlockPower(1.5), noVrLoss());
    auto steady = coarse.steadyState(p);
    auto temps = coarse.uniformState(coarse.params().ambient);
    for (int i = 0; i < 2000; ++i)
        coarse.advance(temps, p);
    for (std::size_t n = 0; n < temps.size(); ++n)
        EXPECT_NEAR(temps[n], steady[n], 0.05) << "node " << n;
}

TEST_F(ThermalTest, TransientIsMonotoneForStepInput)
{
    auto p = model.powerVector(uniformBlockPower(2.0), noVrLoss());
    auto temps = model.uniformState(model.params().ambient);
    double prev = model.maxDieTemp(temps);
    for (int i = 0; i < 50; ++i) {
        model.advance(temps, p);
        double now = model.maxDieTemp(temps);
        EXPECT_GE(now + 1e-9, prev);
        prev = now;
    }
}

TEST_F(ThermalTest, HotterBlockMakesHotterCells)
{
    auto bp = uniformBlockPower(0.5);
    int exu = chip.plan.blockIndex("core0.exu");
    bp[static_cast<std::size_t>(exu)] = 8.0;
    auto temps =
        model.steadyState(model.powerVector(bp, noVrLoss()));
    auto block_t = model.blockTemps(temps);
    int l3 = chip.plan.blockIndex("l3b1");
    EXPECT_GT(block_t[static_cast<std::size_t>(exu)],
              block_t[static_cast<std::size_t>(l3)] + 1.0);
}

TEST_F(ThermalTest, LoadedVrRunsHotterThanHost)
{
    auto vr_loss = noVrLoss();
    vr_loss[4] = 0.19;  // one loaded regulator
    auto temps = model.steadyState(
        model.powerVector(uniformBlockPower(1.0), vr_loss));
    const auto &vr = chip.plan.vrs()[4];
    double host_t = model.blockTemp(temps, vr.hostBlock);
    double vr_t = model.vrTemp(temps, 4);
    // The rise over the *block mean* combines the coupling
    // resistance with the host cell's own local heating, so it
    // exceeds R_vr * P but stays the same order of magnitude.
    double expected_rise =
        0.19 * model.params().vrCouplingResistance;
    EXPECT_GT(vr_t, host_t + 0.6 * expected_rise);
    EXPECT_LT(vr_t, host_t + 3.0 * expected_rise);
}

TEST_F(ThermalTest, UnloadedVrTracksHostCell)
{
    auto temps = model.steadyState(
        model.powerVector(uniformBlockPower(1.5), noVrLoss()));
    const auto &vr = chip.plan.vrs()[0];
    EXPECT_NEAR(model.vrTemp(temps, 0),
                model.blockTemp(temps, vr.hostBlock), 1.5);
}

TEST_F(ThermalTest, GradientAndMaxConsistent)
{
    auto bp = uniformBlockPower(0.2);
    bp[static_cast<std::size_t>(chip.plan.blockIndex("core1.exu"))] =
        6.0;
    auto temps =
        model.steadyState(model.powerVector(bp, noVrLoss()));
    double tmax = model.maxDieTemp(temps);
    double grad = model.gradient(temps);
    EXPECT_GT(grad, 0.0);
    EXPECT_LE(grad, tmax - model.params().ambient + 1e-9);
}

TEST_F(ThermalTest, PowerVectorConservesInput)
{
    auto bp = uniformBlockPower(1.0);
    auto vl = noVrLoss();
    vl[2] = 0.5;
    auto p = model.powerVector(bp, vl);
    double total_in = 0.0;
    for (double v : bp)
        total_in += v;
    total_in += 0.5;
    double total_out = 0.0;
    for (double v : p)
        total_out += v;
    EXPECT_NEAR(total_out, total_in, 1e-9);
}

TEST_F(ThermalTest, DieGridHasExpectedShape)
{
    auto temps = model.uniformState(50.0);
    auto grid = model.dieGrid(temps);
    EXPECT_EQ(grid.size(),
              static_cast<std::size_t>(model.params().gridW *
                                       model.params().gridH));
}

TEST_F(ThermalTest, HottestLocatesInjectedHotspot)
{
    auto bp = uniformBlockPower(0.1);
    int exu = chip.plan.blockIndex("core1.exu");
    bp[static_cast<std::size_t>(exu)] = 10.0;
    auto temps =
        model.steadyState(model.powerVector(bp, noVrLoss()));
    auto hs = model.hottest(temps);
    ASSERT_FALSE(hs.isVr);
    auto [cx, cy] = model.cellCentre(hs.row, hs.col);
    EXPECT_EQ(chip.plan.blockAt(cx, cy), exu);
}

TEST_F(ThermalTest, HottestFindsLoadedVr)
{
    auto vl = noVrLoss();
    vl[7] = 0.6;  // strongly loaded VR dominates a mild background
    auto temps = model.steadyState(
        model.powerVector(uniformBlockPower(0.3), vl));
    auto hs = model.hottest(temps);
    EXPECT_TRUE(hs.isVr);
    EXPECT_EQ(hs.vr, 7);
}

TEST_F(ThermalTest, DeathOnWrongSizes)
{
    std::vector<Watts> bad_blocks(3, 1.0);
    EXPECT_DEATH(model.powerVector(bad_blocks, noVrLoss()),
                 "size mismatch");
    auto temps = model.uniformState(50.0);
    std::vector<Watts> bad_p(5, 0.0);
    EXPECT_DEATH(model.advance(temps, bad_p), "size mismatch");
}

/** Discretisation robustness: the steady Tmax of a fixed scenario
 *  moves only slightly across grid resolutions. */
class GridResolution : public ::testing::TestWithParam<int>
{
};

TEST_P(GridResolution, SteadyTmaxStableAcrossGrids)
{
    auto chip = floorplan::buildMiniChip(2);
    ThermalParams params;
    params.gridW = GetParam();
    params.gridH = GetParam();
    ThermalModel m(chip, params);

    std::vector<Watts> bp(chip.plan.blocks().size(), 1.2);
    std::vector<Watts> vl(chip.plan.vrs().size(), 0.1);
    auto temps = m.steadyState(m.powerVector(bp, vl));
    double tmax = m.maxDieTemp(temps);

    // Reference at the default 28x28 resolution.
    ThermalModel ref(chip, {});
    auto ref_temps =
        ref.steadyState(ref.powerVector(bp, vl));
    EXPECT_NEAR(tmax, ref.maxDieTemp(ref_temps), 2.0);
}

INSTANTIATE_TEST_SUITE_P(Grids, GridResolution,
                         ::testing::Values(16, 20, 24, 32));

// ---- Sparse-vs-dense equivalence ----------------------------------------
// The production solver is the sparse envelope LDL^T; these tests
// rebuild the dense systems from the model's assembled matrices and
// check the two paths never diverge past solver round-off.

TEST_F(ThermalTest, SparseSteadyMatchesDenseReference)
{
    auto p = model.powerVector(uniformBlockPower(1.5), noVrLoss());
    auto sparse = model.steadyState(p);

    Matrix g = model.conductance().toDense();
    LuSolver dense(g);
    std::vector<double> rhs(model.nodeCount());
    const auto &amb = model.ambientInjection();
    for (std::size_t n = 0; n < rhs.size(); ++n)
        rhs[n] = p[n] + amb[n];
    auto ref = dense.solve(rhs);

    for (std::size_t n = 0; n < ref.size(); ++n)
        EXPECT_NEAR(sparse[n], ref[n], 1e-9) << "node " << n;
}

TEST_F(ThermalTest, SparseTransientMatchesDenseReference)
{
    std::size_t n = model.nodeCount();
    double dt = model.step();
    const auto &cap = model.heatCapacities();
    const auto &amb = model.ambientInjection();

    Matrix a = model.conductance().toDense();
    for (std::size_t i = 0; i < n; ++i)
        a(i, i) += cap[i] / dt;
    LuSolver dense(a);

    auto temps = model.uniformState(model.params().ambient);
    std::vector<Celsius> ref(temps);
    std::vector<double> rhs(n);
    for (int step = 0; step < 50; ++step) {
        // Power ramps over the window so every step solves a fresh
        // system, not a settled fixed point.
        auto p = model.powerVector(
            uniformBlockPower(0.5 + 0.05 * step), noVrLoss());
        model.advance(temps, p);
        for (std::size_t i = 0; i < n; ++i)
            rhs[i] = cap[i] / dt * ref[i] + p[i] + amb[i];
        dense.solveInPlace(rhs);
        ref = rhs;
        for (std::size_t i = 0; i < n; ++i)
            ASSERT_NEAR(temps[i], ref[i], 1e-9)
                << "step " << step << " node " << i;
    }
}

} // namespace
} // namespace thermal
} // namespace tg
