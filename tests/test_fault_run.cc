/**
 * @file
 * Integration tests of fault injection through the run loop.
 *
 * The two contracts under test: an EMPTY scenario must leave every
 * result bit-identical to a run without the option (the clean path
 * takes the exact same code), and a NON-EMPTY scenario must itself be
 * deterministic — bit-identical across worker counts, noise batch
 * widths and re-runs. On top of that, the degradation behaviours the
 * paper's robustness story needs: a killed regulator disappears from
 * the active sets within one decision interval, and a faulted sensor
 * is quarantined with a measured detection latency.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "fault/scenario.hh"
#include "floorplan/power8.hh"
#include "run_fixtures.hh"
#include "sim/simulation.hh"
#include "workload/profile.hh"

namespace tg {
namespace sim {
namespace {

SimConfig
miniConfig(int jobs, int width = 4)
{
    SimConfig cfg;
    cfg.noiseSamples = 8;
    cfg.profilingEpochs = 8;
    cfg.jobs = jobs;
    cfg.noiseBatchWidth = width;
    return cfg;
}

/** A bit of everything, sized for the 2-core mini chip. */
fault::FaultScenario
mixedScenario(const floorplan::Chip &chip)
{
    using fault::FaultEvent;
    using fault::FaultKind;
    int n_vrs = static_cast<int>(chip.plan.vrs().size());
    EXPECT_GE(n_vrs, 4);

    fault::FaultScenario s(0x5ce7a1ull);
    auto ev = [&](FaultKind kind, int target, Seconds start,
                  Seconds duration, double magnitude) {
        FaultEvent e;
        e.kind = kind;
        e.target = target;
        e.start = start;
        e.duration = duration;
        e.magnitude = magnitude;
        s.add(e);
    };
    ev(FaultKind::SensorStuckAt, 0, 0.5e-3, fault::kForever, 140.0);
    ev(FaultKind::SensorNoisy, 1 % n_vrs, 0.0, fault::kForever, 4.0);
    ev(FaultKind::VrStuckOff, 1 % n_vrs, 1e-3, 1e-3, 0.0);
    ev(FaultKind::VrStuckOn, 2 % n_vrs, 0.0, fault::kForever, 0.0);
    ev(FaultKind::VrDerated, 3 % n_vrs, 0.0, fault::kForever, 2.0);
    ev(FaultKind::AlertMissed, 0, 0.0, fault::kForever, 0.5);
    ev(FaultKind::AlertSpurious, 1, 0.0, fault::kForever, 0.1);
    return s;
}

TEST(FaultDeterminism, EmptyScenarioBitIdenticalToCleanRun)
{
    // An empty scenario must be indistinguishable from no scenario at
    // all — same code paths, same RNG draws — at every worker count
    // and batch width.
    auto chip = floorplan::buildMiniChip(2);
    fault::FaultScenario empty;
    const auto &profile = workload::profileByName("fft");

    for (int jobs : {1, 4}) {
        for (int width : {1, 4}) {
            Simulation s(chip, miniConfig(jobs, width));
            auto clean =
                s.run(profile, core::PolicyKind::PracVT);
            RecordOptions opts;
            opts.faultScenario = &empty;
            auto faulted =
                s.run(profile, core::PolicyKind::PracVT, opts);
            EXPECT_EQ(fields::firstDifference(clean, faulted), "");
            EXPECT_EQ(faulted.resilience.scheduledFaults, 0);
            EXPECT_EQ(faulted.resilience.faultedEpochs, 0);
            EXPECT_EQ(faulted.resilience.detectionLatency, -1.0);
        }
    }
}

TEST(FaultDeterminism, FaultedRunBitIdenticalAcrossJobsAndWidth)
{
    auto chip = floorplan::buildMiniChip(2);
    auto scenario = mixedScenario(chip);
    const auto &profile = workload::profileByName("fft");
    RecordOptions opts;
    opts.faultScenario = &scenario;

    // OracVT alerts on the raw emergency truth, so a truth flag that
    // differs between the serial and the pooled verify shows up
    // directly instead of through PracVT's predictor.
    for (auto policy :
         {core::PolicyKind::OracVT, core::PolicyKind::PracVT}) {
        RunResult ref;
        bool have_ref = false;
        for (int jobs : {1, 4}) {
            for (int width : {1, 4}) {
                Simulation s(chip, miniConfig(jobs, width));
                auto r = s.run(profile, policy, opts);
                if (!have_ref) {
                    ref = r;
                    have_ref = true;
                } else {
                    EXPECT_EQ(fields::firstDifference(ref, r), "");
                }
            }
        }

        // The scenario genuinely engaged.
        EXPECT_EQ(ref.resilience.scheduledFaults,
                  static_cast<long>(scenario.events().size()));
        EXPECT_GT(ref.resilience.faultedEpochs, 0);
        EXPECT_GT(ref.resilience.degradedDecisions, 0);
        EXPECT_GE(ref.resilience.quarantineEvents, 1);
    }
}

TEST(FaultDeterminism, RepeatedFaultedRunsOnOneInstanceBitIdentical)
{
    // Injector and health-monitor state is per-run; a second faulted
    // run (with a clean run in between) must replay exactly.
    auto chip = floorplan::buildMiniChip(2);
    auto scenario = mixedScenario(chip);
    const auto &profile = workload::profileByName("fft");
    RecordOptions opts;
    opts.faultScenario = &scenario;

    Simulation s(chip, miniConfig(1));
    auto a = s.run(profile, core::PolicyKind::PracVT, opts);
    s.run(profile, core::PolicyKind::PracVT);  // interleaved clean run
    auto b = s.run(profile, core::PolicyKind::PracVT, opts);
    EXPECT_EQ(fields::firstDifference(a, b), "");
}

TEST(FaultRun, KilledVrLeavesTheActiveSetWithinOneInterval)
{
    // Kill chip VR 0 mid-run under AllOn (which would otherwise keep
    // every VR on for the whole run): the governor must drop it from
    // the next decision on, without ever under-supplying the domain.
    auto chip = floorplan::buildMiniChip(2);
    fault::FaultScenario scenario;
    fault::FaultEvent kill;
    kill.kind = fault::FaultKind::VrStuckOff;
    kill.target = 0;
    kill.start = 1e-3;  // exactly the second decision epoch
    scenario.add(kill);

    Simulation s(chip, miniConfig(1));
    RecordOptions opts;
    opts.faultScenario = &scenario;
    opts.trackVr = 0;
    opts.timeSeries = true;
    auto r = s.run(workload::profileByName("fft"),
                   core::PolicyKind::AllOn, opts);

    ASSERT_EQ(r.trackedVrOn.size(), r.timeUs.size());
    ASSERT_GT(r.trackedVrOn.size(), 0u);
    bool saw_pre = false, saw_post = false;
    for (std::size_t f = 0; f < r.trackedVrOn.size(); ++f) {
        // timeUs records the post-step frame time (f + 1) * dt; the
        // kill lands at the epoch boundary, so every frame strictly
        // inside t >= 1 ms runs under the degraded decision.
        if (r.timeUs[f] <= 1000.0) {
            EXPECT_EQ(r.trackedVrOn[f], 1) << "frame " << f;
            saw_pre = true;
        } else {
            EXPECT_EQ(r.trackedVrOn[f], 0) << "frame " << f;
            saw_post = true;
        }
    }
    EXPECT_TRUE(saw_pre);
    EXPECT_TRUE(saw_post);
    EXPECT_GT(r.resilience.degradedDecisions, 0);
    EXPECT_EQ(r.resilience.underSuppliedDecisions, 0);
    EXPECT_EQ(r.resilience.floorEngagements, 0);  // AllOn needs none
}

TEST(FaultRun, FrozenSensorIsQuarantinedWithMeasuredLatency)
{
    // Freeze one sensor early, while the post-startup thermal
    // transient still moves the field: the health monitor must
    // quarantine it and record how long detection took. The stuck
    // reading is plausible in isolation — only the frozen-while-
    // neighbours-move check can catch it.
    auto chip = floorplan::buildMiniChip(2);
    fault::FaultScenario scenario;
    fault::FaultEvent freeze;
    freeze.kind = fault::FaultKind::SensorFrozen;
    freeze.target = 0;
    freeze.start = 0.5e-3;
    scenario.add(freeze);

    SimConfig cfg = miniConfig(1);
    // The mini chip's per-epoch drift is gentle; tighten the
    // neighbour-movement gate (default 1 degC) so the freeze check
    // fires within the run while staying above the 0.25 degC sensor
    // quantisation step.
    cfg.healthParams.freezeNeighbourMove = 0.3;
    Simulation s(chip, cfg);
    RecordOptions opts;
    opts.faultScenario = &scenario;
    auto r = s.run(workload::profileByName("fft"),
                   core::PolicyKind::PracVT, opts);

    EXPECT_GE(r.resilience.quarantineEvents, 1);
    EXPECT_GT(r.resilience.quarantinedEpochs, 0);
    EXPECT_GE(r.resilience.peakQuarantined, 1);
    // Latency: measured from the fault's onset to the first
    // quarantine, a whole number of decision intervals away from the
    // 0.5 ms onset offset.
    EXPECT_GE(r.resilience.detectionLatency, 0.0);
    double intervals =
        (r.resilience.detectionLatency + 0.5e-3) / 1e-3;
    EXPECT_NEAR(intervals, std::round(intervals), 1e-9);
}

} // namespace
} // namespace sim
} // namespace tg
