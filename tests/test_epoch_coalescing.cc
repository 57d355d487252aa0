/**
 * @file
 * Bit-identity tests of cross-epoch noise-window coalescing.
 *
 * Built windows ride one queue across epochs whose decision kept the
 * active set, draining on a set change (per domain, before the
 * re-key), an emergency-truth decision boundary, the batch width
 * cap, or the end of the run. At width 1 the cap drains every window
 * as soon as its frame queues it — the immediate evaluation the
 * hexfloat goldens in test_run_determinism.cc were captured from — so
 * width 1 at jobs 1 is the reference. Wider queues must match it in
 * every RunResult byte at every worker count: for a policy that never
 * flushes mid-run (AllOn: maximal lanes), for the paper's full policy
 * (PracVT: the emergency-truth boundary drains almost every sampled
 * epoch), for a set-changing policy without the override (OracT: the
 * per-domain flush-before-rekey path), and under an active fault
 * scenario (per-sample fault attribution recorded at queue time).
 */

#include <gtest/gtest.h>

#include "cache/serialize.hh"
#include "floorplan/power8.hh"
#include "run_fixtures.hh"
#include "sim/simulation.hh"
#include "workload/profile.hh"

namespace tg {
namespace sim {
namespace {

SimConfig
miniConfig(int jobs, int width)
{
    SimConfig cfg;
    cfg.noiseSamples = 24;  // multiple windows per drain: real lanes
    cfg.profilingEpochs = 8;
    cfg.jobs = jobs;
    cfg.noiseBatchWidth = width;
    return cfg;
}

RunResult
runWith(const floorplan::Chip &chip, core::PolicyKind policy,
        int jobs, int width,
        const fault::FaultScenario *scenario = nullptr)
{
    Simulation s(chip, miniConfig(jobs, width));
    RecordOptions opts;
    opts.faultScenario = scenario;
    return s.run(workload::profileByName("fft"), policy, opts);
}

/** Widths {4, 8} x jobs {1, 4} against the width-1 reference. */
void
expectWideQueuesMatchWidthOne(const floorplan::Chip &chip,
                              core::PolicyKind policy,
                              const fault::FaultScenario *scenario =
                                  nullptr)
{
    const auto ref =
        cache::encodeRunResult(runWith(chip, policy, 1, 1, scenario));
    for (int jobs : {1, 4})
        for (int width : {4, 8})
            EXPECT_TRUE(ref == cache::encodeRunResult(runWith(
                                   chip, policy, jobs, width, scenario)))
                << core::policyName(policy) << " jobs " << jobs
                << " width " << width;
}

TEST(CoalesceDeterminism, MatchesPerEpochPathAcrossJobsAndWidths)
{
    // AllOn never changes sets, so its windows only drain at the
    // width cap and the end of the run — maximal coalescing; PracVT's
    // emergency-truth boundary forces a drain at the start of nearly
    // every sampled epoch — frequent flushes.
    auto chip = floorplan::buildMiniChip(2);
    for (auto policy :
         {core::PolicyKind::AllOn, core::PolicyKind::PracVT})
        expectWideQueuesMatchWidthOne(chip, policy);
}

TEST(CoalesceDeterminism, SetChangingPolicyFlushesBeforeRekey)
{
    // OracT re-selects active sets each epoch without the emergency
    // override, so pending windows hit the flush-before-rekey path:
    // they must solve under the factorisation of the epoch that
    // scheduled them, not the incoming one.
    auto chip = floorplan::buildMiniChip(2);
    expectWideQueuesMatchWidthOne(chip, core::PolicyKind::OracT);
}

TEST(CoalesceDeterminism, FaultScenarioMatchesPerEpochPath)
{
    // Deferred reduction must attribute emergency cycles to the
    // epoch a sample was *scheduled* in (recorded at queue time),
    // exactly as immediate evaluation attributes them.
    auto chip = floorplan::buildMiniChip(2);
    int n_vrs = static_cast<int>(chip.plan.vrs().size());
    ASSERT_GE(n_vrs, 4);
    const auto scenario = mixedFaultScenario(n_vrs);
    for (auto policy :
         {core::PolicyKind::AllOn, core::PolicyKind::PracVT})
        expectWideQueuesMatchWidthOne(chip, policy, &scenario);
}

TEST(CoalesceDeterminism, TracesAndTimeSeriesSurviveDeferral)
{
    // The deepest-droop trace and its timestamp come out of the
    // deferred reduction; they must match immediate evaluation's pick
    // (same strict-> comparison sequence in queue order).
    auto chip = floorplan::buildMiniChip(1);
    RecordOptions opts;
    opts.noiseTrace = true;
    opts.timeSeries = true;
    Simulation immediate(chip, miniConfig(1, 1));
    Simulation coalesced(chip, miniConfig(1, 8));
    auto a = immediate.run(workload::profileByName("rayt"),
                           core::PolicyKind::AllOn, opts);
    auto b = coalesced.run(workload::profileByName("rayt"),
                           core::PolicyKind::AllOn, opts);
    ASSERT_FALSE(a.noiseTrace.empty());
    EXPECT_TRUE(cache::encodeRunResult(a) == cache::encodeRunResult(b));
}

} // namespace
} // namespace sim
} // namespace tg
