/**
 * @file
 * Determinism and allocation-discipline tests of the run loop.
 *
 * The sampled noise windows are solved concurrently across domains
 * when SimConfig::jobs allows it; results must be bit-identical to
 * the serial path at every worker count, and independent of whether
 * droop traces are kept. The steady-state per-frame kernel must not
 * touch the heap: a counting global operator new verifies the
 * individual *Into primitives, a whole warmed-up run and the
 * one-allocation RunResult encoder, and its byte count what a run's
 * noise lanes cost.
 */

#include <gtest/gtest.h>

#include <algorithm>
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
std::atomic<long> g_allocBytes{0};

void
countAlloc(std::size_t size)
{
    g_allocCount.fetch_add(1, std::memory_order_relaxed);
    g_allocBytes.fetch_add(static_cast<long>(size),
                           std::memory_order_relaxed);
}

} // namespace

void *
operator new(std::size_t size)
{
    countAlloc(size);
    if (void *p = std::malloc(size))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size)
{
    countAlloc(size);
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
    countAlloc(size);
    return std::malloc(size);
}

void *
operator new[](std::size_t size, const std::nothrow_t &) noexcept
{
    countAlloc(size);
    return std::malloc(size);
}

// gcc's -Wmismatched-new-delete sees free() in a replaced operator
// delete and assumes the memory came from the default operator new.
// Every replacement here allocates with malloc, so the pairing holds.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

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

#pragma GCC diagnostic pop

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

TEST(RunDeterminism, SerialAndPooledNoiseWindowsBitIdentical)
{
    // jobs=1 evaluates every domain's noise window inline; jobs=4
    // fans them out across a pool. The RNG streams are functions of
    // (run_seed, epoch, sample, domain) and the reduction is serial
    // in domain order, so every field must match bit for bit. At 24
    // samples an epoch has 4 windows, so truth checks and finish()
    // run real lockstep batches.
    auto chip = floorplan::buildMiniChip(2);
    for (int samples : {4, 24}) {
        SimConfig one = miniConfig(1);
        SimConfig four = miniConfig(4);
        one.noiseSamples = four.noiseSamples = samples;
        Simulation serial(chip, one);
        Simulation pooled(chip, four);

        for (auto policy :
             {core::PolicyKind::AllOn, core::PolicyKind::OracVT,
              core::PolicyKind::PracVT}) {
            auto a = serial.run(workload::profileByName("fft"), policy);
            auto b = pooled.run(workload::profileByName("fft"), policy);
            EXPECT_EQ(fields::firstDifference(a, b), "")
                << core::policyName(policy) << " at " << samples
                << " samples";
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
    // The serial path (jobs 1) and the pool fan-outs of the noise
    // windows and the emergency-truth verify (jobs 4) must both
    // reproduce them.
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
    const auto &fft = workload::profileByName("fft");
    const auto scenario = mixedFaultScenario(
        static_cast<int>(chip.plan.vrs().size()));
    for (int jobs : {1, 4}) {
        SimConfig cfg = miniConfig(jobs);
        cfg.noiseSamples = 24;
        Simulation s(chip, cfg);
        std::vector<std::pair<std::string, RunResult>> runs;
        for (auto policy :
             {core::PolicyKind::OffChip, core::PolicyKind::AllOn,
              core::PolicyKind::Naive, core::PolicyKind::OracT,
              core::PolicyKind::OracV, core::PolicyKind::OracVT,
              core::PolicyKind::PracT, core::PolicyKind::PracVT})
            runs.emplace_back(
                std::string("fft/") + core::policyName(policy),
                s.run(fft, policy));

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
                << runs[i].first << " at jobs " << jobs << " digest 0x"
                << std::hex << digest;
        }
    }
}

TEST(RunDeterminism, OverriddenRunDigestsMatchSerialDecide)
{
    // At the default 10% threshold the mini chip never sees an
    // emergency, so every truth check above answers false and the
    // goldens cannot tell which domain a truth belongs to. At 5% most
    // of the core domains' proposals suffer emergencies and the L3
    // banks' never do, so the *VT overrides land on some domains and
    // not others. These digests were recorded with every domain decided
    // one after another (truth check inside each domain's decision);
    // the propose/verify/commit split must reproduce them serially
    // and with verify on the pool. The fft run is 6 epochs, so 24
    // samples are 4 windows per epoch, one 4-lane truth batch; the
    // 18- and 30-sample runs (3 and 5 per epoch) run padded 4- and
    // 8-lane batches, and the 60-sample runs (10 per epoch) fill an
    // 8-lane batch before a 2-lane one. The 18- and 30-sample digests
    // were recorded before padding, when those batches ran 2 + 2 and
    // 4 + 2 lanes, and match one window per batch too.
    struct Golden
    {
        const char *name;
        std::uint64_t digest;
        long overrides;
    };
    const Golden goldens[] = {
        {"fft/OracVT", 0xd32bff454d0c1be9ull, 12},
        {"fft/PracVT", 0xb1c5ae3491e6a319ull, 7},
        {"fft/OracVT/faulted", 0x120e9bf28bb1c0c6ull, 10},
        {"fft/PracVT/faulted", 0x0a14a8d2b1f8ee46ull, 6},
        {"fft+water_s/OracVT", 0x09a3385e1beed80aull, 12},
        {"fft/OracVT/18", 0xeecbb57e59de78a2ull, 12},
        {"fft/PracVT/18", 0x145ff572ead93521ull, 10},
        {"fft/OracVT/30", 0x8a819d34b07d8a00ull, 12},
        {"fft/PracVT/30", 0x960fb5ae81bd1fedull, 10},
        {"fft/OracVT/60", 0x767e3086d35db25bull, 12},
        {"fft/PracVT/60", 0x545f5f9545868f7eull, 10},
    };

    auto chip = floorplan::buildMiniChip(2);
    const auto &fft = workload::profileByName("fft");
    const auto scenario = mixedFaultScenario(
        static_cast<int>(chip.plan.vrs().size()));
    const auto vtPolicies = {core::PolicyKind::OracVT,
                             core::PolicyKind::PracVT};
    for (int jobs : {1, 4}) {
        SimConfig cfg = miniConfig(jobs);
        cfg.noiseSamples = 24;
        cfg.pdnParams.emergencyFrac = 0.05;
        Simulation s(chip, cfg);
        std::vector<std::pair<std::string, RunResult>> runs;
        for (auto policy : vtPolicies)
            runs.emplace_back(
                std::string("fft/") + core::policyName(policy),
                s.run(fft, policy));
        RecordOptions faulted;
        faulted.faultScenario = &scenario;
        for (auto policy : vtPolicies)
            runs.emplace_back(std::string("fft/") +
                                  core::policyName(policy) + "/faulted",
                              s.run(fft, policy, faulted));
        runs.emplace_back(
            "fft+water_s/OracVT",
            s.runMixed({&fft, &workload::profileByName("water_s")},
                       "fft+water_s", core::PolicyKind::OracVT));
        for (int samples : {18, 30, 60}) {
            RecordOptions dense;
            dense.noiseSamplesOverride = samples;
            for (auto policy : vtPolicies)
                runs.emplace_back(std::string("fft/") +
                                      core::policyName(policy) + "/" +
                                      std::to_string(samples),
                                  s.run(fft, policy, dense));
        }

        ASSERT_EQ(runs.size(), std::size(goldens));
        for (std::size_t i = 0; i < runs.size(); ++i) {
            const auto &[name, r] = runs[i];
            EXPECT_EQ(name, goldens[i].name);
            EXPECT_EQ(r.overrideCount, goldens[i].overrides)
                << name << " at jobs " << jobs;
            const std::uint64_t digest = resultDigest(r);
            EXPECT_EQ(digest, goldens[i].digest)
                << name << " at jobs " << jobs << " digest 0x" << std::hex
                << digest;
        }
    }
}

TEST(RunDeterminism, FinishReKeysToEvictedActiveSets)
{
    // finish() solves every sampled window under its epoch's
    // committed set, re-keying each domain's PDN as the recorded sets
    // change. At a 0.1 ms decision interval fft runs 60 epochs on the
    // mini chip, and OracT and PracVT key more distinct sets in a core
    // domain than its factorisation cache keeps (checked through the
    // misses), so the cache evicts while the replay runs and a window
    // whose set was evicted is solved under a rebuilt factorisation.
    // The digests were recorded while each window was still solved
    // during the run, under the factorisation of the epoch that
    // scheduled it.
    struct Golden
    {
        core::PolicyKind policy;
        std::uint64_t digest;
    };
    const Golden goldens[] = {
        {core::PolicyKind::OracT, 0x4889825f7d01feabull},
        {core::PolicyKind::PracVT, 0x83c4ff651086ae9bull},
    };

    auto chip = floorplan::buildMiniChip(2);
    for (int jobs : {1, 4}) {
        for (const auto &g : goldens) {
            SimConfig cfg = miniConfig(jobs);
            cfg.noiseSamples = 48;
            cfg.decisionInterval = 0.1e-3;
            Simulation s(chip, cfg);
            const RunResult r =
                s.run(workload::profileByName("fft"), g.policy);
            const std::uint64_t digest = resultDigest(r);
            EXPECT_EQ(digest, g.digest)
                << core::policyName(g.policy) << " at jobs " << jobs
                << " digest 0x" << std::hex << digest;
            std::uint64_t misses = 0;
            for (std::size_t d = 0; d < chip.plan.domains().size(); ++d)
                misses = std::max(misses, s.domainPdn(static_cast<int>(d))
                                              .factorCacheMisses());
            EXPECT_GT(misses, pdn::DomainPdn::kFactorCacheCapacity)
                << core::policyName(g.policy);
        }
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
    EXPECT_TRUE(a.noiseTrace.empty());
    EXPECT_FALSE(b.noiseTrace.empty());
    EXPECT_GE(b.noiseTraceDomain, 0);
    // Everything but the trace itself matches.
    b.noiseTrace = a.noiseTrace;
    b.noiseTraceDomain = a.noiseTraceDomain;
    b.noiseTraceTimeUs = a.noiseTraceTimeUs;
    EXPECT_EQ(fields::firstDifference(a, b), "");
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
    EXPECT_EQ(fields::firstDifference(a, b), "");
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

TEST(AllocationDiscipline, EncodingAResultAllocatesOnce)
{
    // encodeRunResult sizes its payload with a counting pass over the
    // field list, then writes into one reserved buffer.
    auto chip = floorplan::buildMiniChip(1);
    Simulation s(chip, miniConfig(1));
    RecordOptions series;
    series.timeSeries = true;
    const RunResult r = s.run(workload::profileByName("fft"),
                              core::PolicyKind::PracVT, series);
    ASSERT_FALSE(r.timeUs.empty());
    const std::size_t size = cache::encodeRunResult(r).size();

    long before = g_allocCount.load(std::memory_order_relaxed);
    const std::vector<std::uint8_t> encoded = cache::encodeRunResult(r);
    long after = g_allocCount.load(std::memory_order_relaxed);
    EXPECT_EQ(after - before, 1) << encoded.size() << "-byte payload";
    EXPECT_EQ(encoded.size(), size);
    EXPECT_EQ(encoded.capacity(), size);
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

TEST(AllocationDiscipline, NoiseLanesCostNodesPlusCycles)
{
    // A lockstep lane is a rank-2 window: two node-current profiles
    // and two per-cycle scale rows, 2 * (nodes + cycles) doubles per
    // domain; written out it would be cycles * nodes. Lengthening the
    // windows by 1000 cycles must cost a fresh Simulation's first run
    // about the lanes' extra scale rows, far below the extra rows of
    // written-out windows.
    auto chip = floorplan::buildMiniChip(2);
    const std::size_t width = pdn::DomainPdn::kMaxWindowBatch;
    auto config = [&](std::size_t cycles) {
        SimConfig cfg = miniConfig(1);
        cfg.noiseSamples = 16;
        cfg.noiseCyclesTotal = static_cast<int>(cycles);
        cfg.noiseWarmupCycles = static_cast<int>(cycles / 2);
        cfg.memoizeResults = false;
        return cfg;
    };
    const auto &profile = workload::profileByName("fft");
    // Fill the shared power-trace and PDN-base caches first, so both
    // measured runs hit them.
    Simulation warm(chip, config(1000));
    warm.run(profile, core::PolicyKind::AllOn);
    auto first_run_bytes = [&](std::size_t cycles) {
        Simulation s(chip, config(cycles));
        long before = g_allocBytes.load(std::memory_order_relaxed);
        s.run(profile, core::PolicyKind::AllOn);
        return g_allocBytes.load(std::memory_order_relaxed) - before;
    };
    const long extra = first_run_bytes(2000) - first_run_bytes(1000);

    std::size_t nodes = 0;
    const std::size_t domains = chip.plan.domains().size();
    for (std::size_t d = 0; d < domains; ++d)
        nodes += static_cast<std::size_t>(
            warm.domainPdn(static_cast<int>(d)).nodeCount());
    const long lane_bytes =
        static_cast<long>(width * 2 * domains * 1000 * sizeof(double));
    const long written_bytes =
        static_cast<long>(width * 1000 * nodes * sizeof(double));
    ASSERT_GT(written_bytes, 4 * lane_bytes)
        << "the chip must tell the two costs apart";
    EXPECT_GT(extra, lane_bytes / 2);
    EXPECT_LT(extra, 2 * lane_bytes)
        << "2000-cycle windows allocated " << extra << " bytes more than "
        << "1000-cycle ones; rank-2 lanes cost " << lane_bytes
        << ", written-out windows " << written_bytes;
}

} // namespace
} // namespace sim
} // namespace tg
