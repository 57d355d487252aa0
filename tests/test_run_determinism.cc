/**
 * @file
 * Determinism and allocation-discipline tests of the run loop.
 *
 * The noise windows of a sample frame are evaluated concurrently
 * across domains when SimConfig::jobs allows it; results must be
 * bit-identical to the serial path at every worker count, and
 * independent of whether droop traces are kept. The steady-state
 * per-frame kernel must not touch the heap: a counting global
 * operator new verifies both the individual *Into primitives and a
 * whole warmed-up run.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <iterator>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hh"
#include "floorplan/power8.hh"
#include "run_fixtures.hh"
#include "sim/simulation.hh"
#include "workload/cycles.hh"
#include "workload/profile.hh"

namespace {

std::atomic<long> g_allocCount{0};

} // namespace

void *
operator new(std::size_t size)
{
    g_allocCount.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size)
{
    g_allocCount.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size))
        return p;
    throw std::bad_alloc();
}

// The nothrow forms must count and use malloc too: std::stable_sort
// takes its buffer from nothrow new and frees it through the plain
// delete above, which would otherwise pair malloc's free() with the
// runtime's own new (sanitizers abort on that mismatch).
void *
operator new(std::size_t size, const std::nothrow_t &) noexcept
{
    g_allocCount.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(size);
}

void *
operator new[](std::size_t size, const std::nothrow_t &) noexcept
{
    g_allocCount.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(size);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

namespace tg {
namespace sim {
namespace {

SimConfig
miniConfig(int jobs)
{
    SimConfig cfg;
    cfg.noiseSamples = 4;
    cfg.profilingEpochs = 8;
    cfg.jobs = jobs;
    return cfg;
}

void
expectIdentical(const RunResult &a, const RunResult &b)
{
    EXPECT_EQ(a.benchmark, b.benchmark);
    EXPECT_EQ(a.policy, b.policy);
    EXPECT_EQ(a.maxTmax, b.maxTmax);
    EXPECT_EQ(a.hottestSpot, b.hottestSpot);
    EXPECT_EQ(a.maxGradient, b.maxGradient);
    EXPECT_EQ(a.maxNoiseFrac, b.maxNoiseFrac);
    EXPECT_EQ(a.emergencyFrac, b.emergencyFrac);
    EXPECT_EQ(a.avgRegulatorLoss, b.avgRegulatorLoss);
    EXPECT_EQ(a.avgEta, b.avgEta);
    EXPECT_EQ(a.avgActiveVrs, b.avgActiveVrs);
    EXPECT_EQ(a.meanPower, b.meanPower);
    EXPECT_EQ(a.overrideCount, b.overrideCount);
    EXPECT_EQ(a.agingImbalance, b.agingImbalance);
    EXPECT_EQ(a.vrActivity, b.vrActivity);
    EXPECT_EQ(a.vrAging, b.vrAging);
}

TEST(RunDeterminism, SerialAndPooledNoiseWindowsBitIdentical)
{
    // jobs=1 evaluates every domain's noise window inline; jobs=4
    // fans them out across a pool. The RNG streams are functions of
    // (run_seed, epoch, sample, domain) and the reduction is serial
    // in domain order, so every field must match bit for bit.
    auto chip = floorplan::buildMiniChip(2);
    Simulation serial(chip, miniConfig(1));
    Simulation pooled(chip, miniConfig(4));

    for (auto policy :
         {core::PolicyKind::AllOn, core::PolicyKind::OracVT,
          core::PolicyKind::PracVT}) {
        auto a = serial.run(workload::profileByName("fft"), policy);
        auto b = pooled.run(workload::profileByName("fft"), policy);
        expectIdentical(a, b);
    }
}

TEST(RunDeterminism, BatchWidthSweepBitIdenticalAcrossJobs)
{
    // The lockstep batching of a domain's per-epoch noise windows is
    // a pure throughput knob: widths 1 (scalar solves), 2, 4 and 8
    // must produce bit-identical RunResults, at any worker count.
    auto chip = floorplan::buildMiniChip(2);
    SimConfig base = miniConfig(1);
    base.noiseSamples = 24;  // 4 windows per epoch: real batches

    for (auto policy :
         {core::PolicyKind::AllOn, core::PolicyKind::PracVT}) {
        RunResult ref;
        bool have_ref = false;
        for (int jobs : {1, 4}) {
            for (int width : {1, 2, 4, 8}) {
                SimConfig cfg = base;
                cfg.jobs = jobs;
                cfg.noiseBatchWidth = width;
                Simulation s(chip, cfg);
                auto r =
                    s.run(workload::profileByName("fft"), policy);
                if (!have_ref) {
                    ref = r;
                    have_ref = true;
                } else {
                    expectIdentical(ref, r);
                }
            }
        }
    }
}

TEST(RunDeterminism, GoldenResultsMatchPreBatchingScalarPath)
{
    // Full-precision goldens captured from the tree BEFORE the
    // batched transient kernel existed (per-window scalar solves,
    // immediate evaluation at the sample frame). The batched sampler
    // must reproduce them bit for bit; a drift here means the
    // "bit-identical at every width" contract broke, not that a
    // tolerance needs loosening.
    struct Golden
    {
        core::PolicyKind policy;
        double maxTmax;
        double maxGradient;
        double maxNoiseFrac;
        double avgRegulatorLoss;
        double avgEta;
        double avgActiveVrs;
        double meanPower;
        double agingImbalance;
        long overrideCount;
        const char *hottestSpot;
    };
    const Golden goldens[] = {
        {core::PolicyKind::AllOn, 0x1.f6e04cf2063d9p+5,
         0x1.cb9628139c82p+3, 0x1.91a559199e6c2p-5,
         0x1.9eb022a2f6572p+1, 0x1.b4b8e56353779p-1, 0x1.8p+4,
         0x1.2be39b60c59cbp+4, 0x1.40d3b16183bd1p+0, 0,
         "core0.vr8"},
        {core::PolicyKind::OracVT, 0x1.ecc81346d6dap+5,
         0x1.a40c8aac6f22cp+3, 0x1.06045784fa272p-4,
         0x1.2e3e4e8b8003p+1, 0x1.c6b05a56b5db7p-1,
         0x1.baaaaaaaaaaa7p+3, 0x1.2b0468e36b51dp+4,
         0x1.9be351c636f6ep+0, 0, "core0.vr4"},
        {core::PolicyKind::PracVT, 0x1.ec72adb46772ep+5,
         0x1.a2b3b234839b4p+3, 0x1.2966db34f5acp-4,
         0x1.587b32b6dabd1p+1, 0x1.bfdd61564727dp-1,
         0x1.0d55555555549p+4, 0x1.2b40d60d2ea86p+4,
         0x1.608b943f395dfp+0, 0, "core0.vr7"},
    };

    auto chip = floorplan::buildMiniChip(2);
    SimConfig cfg = miniConfig(1);
    cfg.noiseSamples = 24;
    Simulation s(chip, cfg);
    for (const auto &g : goldens) {
        auto r = s.run(workload::profileByName("fft"), g.policy);
        EXPECT_EQ(r.maxTmax, g.maxTmax);
        EXPECT_EQ(r.maxGradient, g.maxGradient);
        EXPECT_EQ(r.maxNoiseFrac, g.maxNoiseFrac);
        EXPECT_EQ(r.emergencyFrac, 0.0);
        EXPECT_EQ(r.avgRegulatorLoss, g.avgRegulatorLoss);
        EXPECT_EQ(r.avgEta, g.avgEta);
        EXPECT_EQ(r.avgActiveVrs, g.avgActiveVrs);
        EXPECT_EQ(r.meanPower, g.meanPower);
        EXPECT_EQ(r.agingImbalance, g.agingImbalance);
        EXPECT_EQ(r.overrideCount, g.overrideCount);
        EXPECT_EQ(r.hottestSpot, g.hottestSpot);
    }
}

TEST(RunDeterminism, EncodedResultDigestsMatchParent)
{
    // FNV-1a digests of the bit-exact RunResult encoding, recorded
    // before the run loop was split into stages. Unlike the scalar
    // goldens above they pin every field — series, traces, the
    // resilience counters — of all eight policies, faulted runs, a
    // run recording every RecordOptions product and a mixed co-run.
    // A mismatch is a behaviour change, never a digest to refresh.
    struct Golden
    {
        const char *name;
        std::uint64_t digest;
    };
    const Golden goldens[] = {
        {"fft/off-chip", 0xd7a66e533d648ebbull},
        {"fft/all-on", 0x7ce232e2e2005ec4ull},
        {"fft/Naive", 0x3936fcf429e22c40ull},
        {"fft/OracT", 0xa04b4bc2e109a756ull},
        {"fft/OracV", 0xc447641c622c7160ull},
        {"fft/OracVT", 0x5eb419012e89aad4ull},
        {"fft/PracT", 0xd3173067320cd6faull},
        {"fft/PracVT", 0x708b43a409a96e6dull},
        {"fft/OracT/faulted", 0x6b1825d6ed268cbcull},
        {"fft/PracVT/faulted", 0x517074002da7a0aaull},
        {"rayt/all-on/recorded", 0xa75d7b7ac7ece478ull},
        {"fft+water_s/PracVT", 0x83dce95dbd789dd8ull},
    };

    auto chip = floorplan::buildMiniChip(2);
    SimConfig cfg = miniConfig(1);
    cfg.noiseSamples = 24;
    Simulation s(chip, cfg);
    const auto &fft = workload::profileByName("fft");
    std::vector<std::pair<std::string, RunResult>> runs;
    for (auto policy :
         {core::PolicyKind::OffChip, core::PolicyKind::AllOn,
          core::PolicyKind::Naive, core::PolicyKind::OracT,
          core::PolicyKind::OracV, core::PolicyKind::OracVT,
          core::PolicyKind::PracT, core::PolicyKind::PracVT})
        runs.emplace_back(std::string("fft/") + core::policyName(policy),
                          s.run(fft, policy));

    const auto scenario = mixedFaultScenario(
        static_cast<int>(chip.plan.vrs().size()));
    RecordOptions faulted;
    faulted.faultScenario = &scenario;
    for (auto policy :
         {core::PolicyKind::OracT, core::PolicyKind::PracVT})
        runs.emplace_back(std::string("fft/") +
                              core::policyName(policy) + "/faulted",
                          s.run(fft, policy, faulted));

    RecordOptions recorded;
    recorded.timeSeries = true;
    recorded.trackVr = 1;
    recorded.heatmap = true;
    recorded.noiseTrace = true;
    runs.emplace_back("rayt/all-on/recorded",
                      s.run(workload::profileByName("rayt"),
                            core::PolicyKind::AllOn, recorded));
    runs.emplace_back(
        "fft+water_s/PracVT",
        s.runMixed({&fft, &workload::profileByName("water_s")},
                   "fft+water_s", core::PolicyKind::PracVT));

    ASSERT_EQ(runs.size(), std::size(goldens));
    for (std::size_t i = 0; i < runs.size(); ++i) {
        EXPECT_EQ(runs[i].first, goldens[i].name);
        const std::uint64_t digest = resultDigest(runs[i].second);
        EXPECT_EQ(digest, goldens[i].digest)
            << runs[i].first << " digest 0x" << std::hex << digest;
    }
}

TEST(RunDeterminism, KeepingDroopTracesDoesNotChangeMetrics)
{
    auto chip = floorplan::buildMiniChip(1);
    Simulation s(chip, miniConfig(1));

    RecordOptions plain;
    RecordOptions traced;
    traced.noiseTrace = true;
    auto a =
        s.run(workload::profileByName("rayt"),
              core::PolicyKind::OracVT, plain);
    auto b =
        s.run(workload::profileByName("rayt"),
              core::PolicyKind::OracVT, traced);
    expectIdentical(a, b);
    EXPECT_TRUE(a.noiseTrace.empty());
    EXPECT_FALSE(b.noiseTrace.empty());
    EXPECT_GE(b.noiseTraceDomain, 0);
}

TEST(RunDeterminism, RepeatedRunsOnOneInstanceBitIdentical)
{
    // Scratch buffers (frame kernel, noise sampler, sensor ring) are
    // reused across runs; stale contents must never leak into a
    // later run's results.
    auto chip = floorplan::buildMiniChip(1);
    Simulation s(chip, miniConfig(1));
    auto a = s.run(workload::profileByName("fft"),
                   core::PolicyKind::PracVT);
    s.run(workload::profileByName("lu_cb"),
          core::PolicyKind::AllOn);
    auto b = s.run(workload::profileByName("fft"),
                   core::PolicyKind::PracVT);
    expectIdentical(a, b);
}

TEST(AllocationDiscipline, WarmKernelPrimitivesDoNotAllocate)
{
    auto chip = floorplan::buildMiniChip(1);
    SimConfig cfg = miniConfig(1);
    Simulation s(chip, cfg);

    const auto &tm = s.thermalModel();
    const auto &pm = s.powerModel();
    const auto &pdn = s.domainPdn(0);

    auto temps = tm.uniformState(55.0);
    std::vector<Celsius> block_t;
    std::vector<Watts> leak;
    std::vector<Watts> vr_loss(chip.plan.vrs().size(), 0.05);
    std::vector<Watts> nodal;
    std::vector<Amperes> currents;
    std::vector<double> mult;
    Rng rng(17);

    // Warm-up pass sizes every buffer (and the solver scratches).
    tm.blockTempsInto(temps, block_t);
    pm.leakageFrameInto(block_t, leak);
    tm.powerVectorInto(leak, vr_loss, nodal);
    tm.advance(temps, nodal);
    pdn.nodeCurrentsInto(leak, currents);
    workload::synthesizeCycleMultipliersInto(0.5, 256, rng, mult);
    std::vector<Amperes> window(
        256 * static_cast<std::size_t>(pdn.nodeCount()));
    for (std::size_t c = 0; c < 256; ++c)
        for (std::size_t i = 0;
             i < static_cast<std::size_t>(pdn.nodeCount()); ++i)
            window[c * static_cast<std::size_t>(pdn.nodeCount()) + i] =
                currents[i] * mult[c];
    pdn.transientWindow(window.data(), 256,
                        static_cast<std::size_t>(pdn.nodeCount()), 64);
    // Batched kernel warm-up: 4 lanes over the same cycle buffer
    // sizes every n x W scratch.
    pdn::DomainPdn::WindowSpec specs[4] = {
        {window.data(), static_cast<std::size_t>(pdn.nodeCount())},
        {window.data(), static_cast<std::size_t>(pdn.nodeCount())},
        {window.data(), static_cast<std::size_t>(pdn.nodeCount())},
        {window.data(), static_cast<std::size_t>(pdn.nodeCount())}};
    pdn::NoiseResult batch_out[4];
    pdn.transientWindowBatch(specs, 4, 256, 64, false, batch_out);

    long before = g_allocCount.load(std::memory_order_relaxed);
    for (int it = 0; it < 3; ++it) {
        tm.blockTempsInto(temps, block_t);
        pm.leakageFrameInto(block_t, leak);
        tm.powerVectorInto(leak, vr_loss, nodal);
        tm.advance(temps, nodal);
        pdn.nodeCurrentsInto(leak, currents);
        workload::synthesizeCycleMultipliersInto(0.5, 256, rng, mult);
        pdn.transientWindow(window.data(), 256,
                            static_cast<std::size_t>(pdn.nodeCount()),
                            64);
        pdn.transientWindowBatch(specs, 4, 256, 64, false, batch_out);
    }
    long after = g_allocCount.load(std::memory_order_relaxed);
    EXPECT_EQ(after - before, 0)
        << "warm per-frame primitives must not touch the heap";
}

TEST(AllocationDiscipline, WarmRunAllocationsAreBounded)
{
    // A full warmed-up run still allocates for genuinely per-run
    // products (the demand/activity traces, the power trace growth on
    // first use, per-epoch decision vectors) but must stay far below
    // the historical per-frame/per-cycle churn: the old loop paid ~6
    // vector allocations per frame plus one row vector per transient
    // cycle (hundreds per noise window).
    auto chip = floorplan::buildMiniChip(1);
    Simulation s(chip, miniConfig(1));
    const auto &profile = workload::profileByName("fft");
    s.run(profile, core::PolicyKind::PracVT);  // warm-up

    RecordOptions series;
    series.timeSeries = true;
    auto probe = s.run(profile, core::PolicyKind::PracVT, series);
    long n_frames = static_cast<long>(probe.timeUs.size());
    ASSERT_GT(n_frames, 0);

    long before = g_allocCount.load(std::memory_order_relaxed);
    s.run(profile, core::PolicyKind::PracVT);
    long after = g_allocCount.load(std::memory_order_relaxed);
    long per_frame_budget = 5;  // activity/demand trace construction
    EXPECT_LT(after - before, 4096 + per_frame_budget * n_frames)
        << "warm run allocated " << (after - before) << " times over "
        << n_frames << " frames";
}

} // namespace
} // namespace sim
} // namespace tg
