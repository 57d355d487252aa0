/**
 * @file
 * google-benchmark micro-benchmarks of the numerical kernels behind
 * the reproduction: LU factorisation/back-substitution, the thermal
 * RC step, the PDN transient cycle, and a full governor decision.
 * These document what makes the figure sweeps affordable (factor
 * once, back-substitute per step).
 *
 * The *Dense variants reconstruct the dense solve paths the sparse
 * engine replaced, so the sparse-vs-dense and cached-vs-uncached
 * speedups are tracked as first-class numbers in the benchmark JSON.
 */

#include <benchmark/benchmark.h>

#include "common/matrix.hh"
#include "common/sparse.hh"
#include "common/rng.hh"
#include "core/governor.hh"
#include "floorplan/power8.hh"
#include "pdn/domain_pdn.hh"
#include "thermal/model.hh"
#include "vreg/design.hh"
#include "vreg/network.hh"
#include "workload/cycles.hh"

using namespace tg;

namespace {

Matrix
randomSpd(std::size_t n, Rng &rng)
{
    Matrix a(n, n, 0.0);
    for (std::size_t r = 0; r < n; ++r) {
        for (std::size_t c = 0; c <= r; ++c) {
            double v = rng.uniform(-1.0, 1.0);
            a(r, c) = v;
            a(c, r) = v;
        }
        a(r, r) += static_cast<double>(n);  // diagonally dominant
    }
    return a;
}

void
BM_LuFactor(benchmark::State &state)
{
    std::size_t n = static_cast<std::size_t>(state.range(0));
    Rng rng(7);
    Matrix a = randomSpd(n, rng);
    for (auto _ : state) {
        LuSolver lu(a);
        benchmark::DoNotOptimize(lu.size());
    }
}
BENCHMARK(BM_LuFactor)->Arg(64)->Arg(256)->Arg(740);

void
BM_LuSolve(benchmark::State &state)
{
    std::size_t n = static_cast<std::size_t>(state.range(0));
    Rng rng(7);
    LuSolver lu(randomSpd(n, rng));
    std::vector<double> b(n, 1.0);
    for (auto _ : state) {
        auto x = lu.solve(b);
        benchmark::DoNotOptimize(x.data());
    }
}
BENCHMARK(BM_LuSolve)->Arg(64)->Arg(256)->Arg(740);

void
BM_ThermalStep(benchmark::State &state)
{
    static const floorplan::Chip chip = floorplan::buildPower8Chip();
    static const thermal::ThermalModel model(chip, {});
    auto temps = model.uniformState(55.0);
    std::vector<Watts> block(chip.plan.blocks().size(), 2.0);
    std::vector<Watts> vr(chip.plan.vrs().size(), 0.15);
    auto p = model.powerVector(block, vr);
    for (auto _ : state) {
        model.advance(temps, p);
        benchmark::DoNotOptimize(temps.data());
    }
}
BENCHMARK(BM_ThermalStep);

void
BM_ThermalStepDense(benchmark::State &state)
{
    // The dense path BM_ThermalStep replaced: full LU of the
    // (C/dt + G) matrix, O(n^2) back-substitution per step.
    static const floorplan::Chip chip = floorplan::buildPower8Chip();
    static const thermal::ThermalModel model(chip, {});
    static const LuSolver dense = [] {
        Matrix a = model.conductance().toDense();
        const auto &cap = model.heatCapacities();
        for (std::size_t i = 0; i < cap.size(); ++i)
            a(i, i) += cap[i] / model.step();
        return LuSolver(a);
    }();
    auto temps = model.uniformState(55.0);
    std::vector<Watts> block(chip.plan.blocks().size(), 2.0);
    std::vector<Watts> vr(chip.plan.vrs().size(), 0.15);
    auto p = model.powerVector(block, vr);
    const auto &cap = model.heatCapacities();
    const auto &amb = model.ambientInjection();
    std::vector<double> rhs(model.nodeCount());
    for (auto _ : state) {
        for (std::size_t i = 0; i < rhs.size(); ++i)
            rhs[i] = cap[i] / model.step() * temps[i] + p[i] + amb[i];
        dense.solveInPlace(rhs);
        temps.swap(rhs);
        benchmark::DoNotOptimize(temps.data());
    }
}
BENCHMARK(BM_ThermalStepDense);

void
BM_ThermalFactorSparse(benchmark::State &state)
{
    static const floorplan::Chip chip = floorplan::buildPower8Chip();
    static const thermal::ThermalModel model(chip, {});
    const SparseMatrix &g = model.conductance();
    for (auto _ : state) {
        SparseLdltSolver ldlt(g);
        benchmark::DoNotOptimize(ldlt.size());
    }
}
BENCHMARK(BM_ThermalFactorSparse);

void
BM_ThermalFactorDense(benchmark::State &state)
{
    static const floorplan::Chip chip = floorplan::buildPower8Chip();
    static const thermal::ThermalModel model(chip, {});
    static const Matrix g = model.conductance().toDense();
    for (auto _ : state) {
        LuSolver lu(g);
        benchmark::DoNotOptimize(lu.size());
    }
}
BENCHMARK(BM_ThermalFactorDense);

void
BM_PdnTransientWindow(benchmark::State &state)
{
    static const floorplan::Chip chip = floorplan::buildPower8Chip();
    static pdn::DomainPdn dp(chip, 0, vreg::fivrDesign(), {});
    std::vector<Watts> block(chip.plan.blocks().size(), 0.0);
    for (int b : chip.plan.domains()[0].blocks)
        block[static_cast<std::size_t>(b)] = 1.5;
    auto base = dp.nodeCurrents(block);
    Rng rng(11);
    auto mult = workload::synthesizeCycleMultipliers(0.8, 600, rng);
    const std::size_t n = base.size();
    std::vector<Amperes> window(600 * n);
    for (std::size_t c = 0; c < 600; ++c)
        for (std::size_t i = 0; i < n; ++i)
            window[c * n + i] = base[i] * mult[c];
    for (auto _ : state) {
        auto res = dp.transientWindow(window.data(), 600, n, 200);
        benchmark::DoNotOptimize(res.maxNoiseFrac);
    }
}
BENCHMARK(BM_PdnTransientWindow);

void
BM_SetActiveCacheHit(benchmark::State &state)
{
    // Alternate between two configurations so every call really
    // changes the active set (the short-circuit is a separate path)
    // and both are served from the LRU cache after the first lap.
    static const floorplan::Chip chip = floorplan::buildPower8Chip();
    static pdn::DomainPdn dp(chip, 0, vreg::fivrDesign(), {});
    std::vector<int> a = {0, 4, 8};
    std::vector<int> b = {0, 1, 2, 3, 4, 5, 6, 7, 8};
    dp.setActive(a);
    dp.setActive(b);
    bool flip = false;
    for (auto _ : state) {
        dp.setActive(flip ? a : b);
        flip = !flip;
        benchmark::DoNotOptimize(dp.active().data());
    }
}
BENCHMARK(BM_SetActiveCacheHit);

void
BM_SetActiveFresh(benchmark::State &state)
{
    // Cold path: the Woodbury downdate pair is rebuilt every call.
    static const floorplan::Chip chip = floorplan::buildPower8Chip();
    static pdn::DomainPdn dp(chip, 0, vreg::fivrDesign(), {});
    for (auto _ : state) {
        dp.clearFactorCache();
        dp.setActive({0, 4, 8});
        benchmark::DoNotOptimize(dp.active().data());
    }
}
BENCHMARK(BM_SetActiveFresh);

void
BM_SetActiveDense(benchmark::State &state)
{
    // The path setActive() replaced: assemble the bordered
    // [[G, -B], [B^T, R]] steady and transient matrices and run two
    // dense LU factorisations per reconfiguration.
    static const floorplan::Chip chip = floorplan::buildPower8Chip();
    static pdn::DomainPdn dp(chip, 0, vreg::fivrDesign(), {});
    static const Matrix g = dp.gridConductance().toDense();
    std::vector<int> active = {0, 4, 8};
    std::size_t n = static_cast<std::size_t>(dp.nodeCount());
    std::size_t m = active.size();
    double r_out = vreg::fivrDesign().outputResistance;
    double dt = dp.params().cycleTime;
    for (auto _ : state) {
        Matrix a(n + m, n + m, 0.0);
        for (std::size_t r = 0; r < n; ++r)
            for (std::size_t c = 0; c < n; ++c)
                a(r, c) = g(r, c);
        for (std::size_t k = 0; k < m; ++k) {
            std::size_t node = static_cast<std::size_t>(
                dp.vrAttachNode(active[k]));
            a(node, n + k) = -1.0;
            a(n + k, node) = 1.0;
            a(n + k, n + k) = r_out;
        }
        LuSolver steady(a);
        for (std::size_t i = 0; i < n; ++i)
            a(i, i) += dp.nodeDecaps()[i] / dt;
        for (std::size_t k = 0; k < m; ++k)
            a(n + k, n + k) += dp.branchInductance(active[k]) / dt;
        LuSolver transient(a);
        benchmark::DoNotOptimize(steady.size());
        benchmark::DoNotOptimize(transient.size());
    }
}
BENCHMARK(BM_SetActiveDense);

void
BM_GovernorDecision(benchmark::State &state)
{
    static const floorplan::Chip chip = floorplan::buildPower8Chip();
    static pdn::DomainPdn dp(chip, 0, vreg::fivrDesign(), {});
    static vreg::RegulatorNetwork net(vreg::fivrDesign(), 9);

    core::Governor governor(core::PolicyKind::PracT, 16);
    std::vector<double> thetas(9, 28.0);
    core::PolicyToolkit kit;
    kit.pdn = &dp;
    kit.network = &net;
    kit.thetas = &thetas;

    core::DomainState st;
    st.domain = 0;
    st.demandNow = 7.0;
    st.demandNext = 7.5;
    st.vrTemps = {61, 62, 61.5, 64, 65, 64.5, 66, 67, 66.5};
    st.vrLossNow = {0.18, 0.18, 0.18, 0.18, 0.18, 0, 0, 0, 0};
    st.vrLossNextPerActive = 0.19;
    st.nodeCurrents.assign(
        static_cast<std::size_t>(dp.nodeCount()), 0.12);
    st.didt = 0.5;

    for (auto _ : state) {
        auto d = governor.decide(st, kit, false);
        benchmark::DoNotOptimize(d.active.data());
        ++st.decision;
    }
}
BENCHMARK(BM_GovernorDecision);

} // namespace

BENCHMARK_MAIN();
