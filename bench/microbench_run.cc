/**
 * @file
 * google-benchmark timings of whole Simulation::run invocations, the
 * quantity the zero-allocation run-loop work optimises end to end:
 * one fixed benchmark profile through each policy tier on the full
 * POWER8 chip at default settings, plus a noise-free variant that
 * isolates the frame kernel (thermal step + regulator accounting)
 * from the sampled PDN windows.
 *
 * CI runs this at TG_JOBS=1, the setting the checked-in baselines
 * were recorded at, archives the JSON next to the solver benchmarks,
 * and tools/check_bench_regression.py fails the job when a benchmark
 * regresses more than 50% against its baseline (normalized by
 * BM_MachineCalibration).
 *
 * A run fans out across domains on the process pool (SimConfig::jobs
 * / TG_JOBS): the noise windows of every policy and the emergency-
 * truth verify of OracVT and PracVT. Run it at TG_JOBS=1 and
 * TG_JOBS=4 for the scaling ladder; results are bit-identical at
 * every worker count.
 */

#include <benchmark/benchmark.h>

#include "floorplan/floorplan.hh"
#include "floorplan/power8.hh"
#include "sim/simulation.hh"
#include "workload/profile.hh"

using namespace tg;

namespace {

/**
 * One Simulation per benchmarked policy, built lazily and kept for
 * the whole process so the thermal factorisations, the fitted
 * predictor and the warm scratch buffers are shared across benchmark
 * iterations — the steady-state cost is what the numbers track.
 */
const floorplan::Chip &
sharedChip()
{
    static const floorplan::Chip chip = floorplan::buildPower8Chip();
    return chip;
}

sim::Simulation &
sharedSim()
{
    static sim::Simulation s(sharedChip(), sim::SimConfig{});
    return s;
}

void
runPolicy(benchmark::State &state, core::PolicyKind policy,
          int noise_samples_override)
{
    auto &s = sharedSim();
    const auto &profile = workload::profileByName("fft");
    sim::RecordOptions opts;
    opts.noiseSamplesOverride = noise_samples_override;
    for (auto _ : state) {
        auto res = s.run(profile, policy, opts);
        benchmark::DoNotOptimize(res.maxTmax);
    }
}

void
BM_RunAllOn(benchmark::State &state)
{
    runPolicy(state, core::PolicyKind::AllOn, -1);
}
BENCHMARK(BM_RunAllOn)->Unit(benchmark::kMillisecond);

void
BM_RunOracT(benchmark::State &state)
{
    runPolicy(state, core::PolicyKind::OracT, -1);
}
BENCHMARK(BM_RunOracT)->Unit(benchmark::kMillisecond);

void
BM_RunOracVT(benchmark::State &state)
{
    runPolicy(state, core::PolicyKind::OracVT, -1);
}
BENCHMARK(BM_RunOracVT)->Unit(benchmark::kMillisecond);

void
BM_RunPracVT(benchmark::State &state)
{
    runPolicy(state, core::PolicyKind::PracVT, -1);
}
BENCHMARK(BM_RunPracVT)->Unit(benchmark::kMillisecond);

/** Frame kernel only: no noise windows, so no PDN transients. */
void
BM_RunFrameLoopOnly(benchmark::State &state)
{
    runPolicy(state, core::PolicyKind::OracT, 0);
}
BENCHMARK(BM_RunFrameLoopOnly)->Unit(benchmark::kMillisecond);

/**
 * The batched lockstep transient kernel in isolation: Arg is the
 * batch size, and each iteration advances `width` independent noise
 * windows through domain 0's current factorisation in one
 * transientWindowBatch() call. Throughput is reported as
 * window-cycles per second (items/s), so the sizes are directly
 * comparable: the results are bit-identical at every size, only the
 * rate moves. Sizes 1, 3 and 5 run padded 2-, 4- and 8-lane kernels
 * (3 and 5 are the truth checks' common ragged batches).
 */
void
BM_TransientKernelBatch(benchmark::State &state)
{
    auto &s = sharedSim();
    const auto &pdn = s.domainPdn(0);
    const std::size_t n = static_cast<std::size_t>(pdn.nodeCount());
    constexpr std::size_t kCycles = 512;
    constexpr int kWarmup = 128;

    // Eight distinct load-step windows, built once per process.
    static const std::vector<std::vector<Amperes>> windows =
        [&]() {
            const auto &chip = s.chip();
            std::vector<std::vector<Amperes>> w;
            for (int i = 0; i < 8; ++i) {
                std::vector<Watts> bp(chip.plan.blocks().size(), 0.0);
                for (int b : chip.plan.domains()[0].blocks)
                    bp[static_cast<std::size_t>(b)] = 0.6 + 0.15 * i;
                auto base = pdn.nodeCurrents(bp);
                std::vector<Amperes> win(kCycles * n);
                for (std::size_t c = 0; c < kCycles; ++c) {
                    double m = 1.0 + 0.5 * ((c / 64) % 2);
                    for (std::size_t j = 0; j < n; ++j)
                        win[c * n + j] = base[j] * m;
                }
                w.push_back(std::move(win));
            }
            return w;
        }();

    int width = static_cast<int>(state.range(0));
    std::vector<pdn::DomainPdn::WindowSpec> specs;
    for (int i = 0; i < width; ++i)
        specs.push_back(
            {windows[static_cast<std::size_t>(i)].data(), n});
    std::vector<pdn::NoiseResult> out(
        static_cast<std::size_t>(width));
    for (auto _ : state) {
        pdn.transientWindowBatch(specs.data(), width, kCycles,
                                 kWarmup, false, out.data());
        benchmark::DoNotOptimize(out[0].maxNoiseFrac);
    }
    state.SetItemsProcessed(
        state.iterations() * static_cast<std::int64_t>(width) *
        static_cast<std::int64_t>(kCycles));
}
BENCHMARK(BM_TransientKernelBatch)
    ->Arg(1)
    ->Arg(2)
    ->Arg(3)
    ->Arg(4)
    ->Arg(5)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

/**
 * The same kernel over rank-2 lanes, as the run loop feeds it: each
 * lane is two node-current profiles (logic, memory) and two
 * per-cycle scale rows, and the kernel forms the currents. The same
 * load steps, sizes and items/s as BM_TransientKernelBatch, so the
 * two compare the row sources.
 */
void
BM_TransientKernelRank2(benchmark::State &state)
{
    auto &s = sharedSim();
    const auto &pdn = s.domainPdn(0);
    constexpr std::size_t kCycles = 512;
    constexpr int kWarmup = 128;

    struct Lane
    {
        std::vector<Amperes> logic, mem;
        std::vector<double> ml, mm;
    };
    // Eight distinct load-step lanes, built once per process.
    static const std::vector<Lane> lanes = [&]() {
        const auto &chip = s.chip();
        std::vector<Lane> l;
        for (int i = 0; i < 8; ++i) {
            std::vector<Watts> logic(chip.plan.blocks().size(), 0.0);
            std::vector<Watts> mem(chip.plan.blocks().size(), 0.0);
            for (int b : chip.plan.domains()[0].blocks) {
                const auto ub = static_cast<std::size_t>(b);
                (floorplan::isLogicUnit(chip.plan.blocks()[ub].kind)
                     ? logic
                     : mem)[ub] = 0.6 + 0.15 * i;
            }
            Lane lane{pdn.nodeCurrents(logic), pdn.nodeCurrents(mem), {},
                      {}};
            for (std::size_t c = 0; c < kCycles; ++c) {
                double m = 1.0 + 0.5 * ((c / 64) % 2);
                lane.ml.push_back(m);
                lane.mm.push_back(1.0 + 0.35 * (m - 1.0));
            }
            l.push_back(std::move(lane));
        }
        return l;
    }();

    int width = static_cast<int>(state.range(0));
    std::vector<pdn::DomainPdn::WindowLane> specs;
    for (int i = 0; i < width; ++i) {
        const Lane &l = lanes[static_cast<std::size_t>(i)];
        specs.push_back(
            {l.logic.data(), l.mem.data(), l.ml.data(), l.mm.data()});
    }
    std::vector<pdn::NoiseResult> out(
        static_cast<std::size_t>(width));
    for (auto _ : state) {
        pdn.transientWindowBatch(specs.data(), width, kCycles,
                                 kWarmup, false, out.data());
        benchmark::DoNotOptimize(out[0].maxNoiseFrac);
    }
    state.SetItemsProcessed(
        state.iterations() * static_cast<std::int64_t>(width) *
        static_cast<std::int64_t>(kCycles));
}
BENCHMARK(BM_TransientKernelRank2)
    ->Arg(1)
    ->Arg(2)
    ->Arg(3)
    ->Arg(4)
    ->Arg(5)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

/**
 * Repo-independent calibration workload: a fixed dense
 * matrix-multiply over plain buffers, touching nothing in tg::.
 * tools/check_bench_regression.py divides every benchmark's time by
 * this one before comparing against the checked-in baseline
 * (--normalize-by), so a baseline recorded on one machine class
 * still gates a faster or slower CI runner.
 */
void
BM_MachineCalibration(benchmark::State &state)
{
    constexpr int kN = 144;
    static std::vector<double> a, b, c;
    if (a.empty()) {
        a.resize(kN * kN);
        b.resize(kN * kN);
        c.resize(kN * kN, 0.0);
        for (int i = 0; i < kN * kN; ++i) {
            a[static_cast<std::size_t>(i)] = 1.0 + (i % 7) * 0.125;
            b[static_cast<std::size_t>(i)] = 2.0 - (i % 5) * 0.25;
        }
    }
    for (auto _ : state) {
        for (int i = 0; i < kN; ++i)
            for (int k = 0; k < kN; ++k) {
                double aik = a[static_cast<std::size_t>(i * kN + k)];
                for (int j = 0; j < kN; ++j)
                    c[static_cast<std::size_t>(i * kN + j)] +=
                        aik * b[static_cast<std::size_t>(k * kN + j)];
            }
        benchmark::DoNotOptimize(c.data());
    }
}
BENCHMARK(BM_MachineCalibration)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
