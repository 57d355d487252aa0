/**
 * @file
 * Bit-identity tests of the finish-time noise solve across widths.
 *
 * finish() solves every sampled window: each domain walks the samples
 * in order and solves up to noiseBatchWidth consecutive samples whose
 * epochs committed the same active set as one lockstep chunk. At
 * width 1 every window is solved alone, as the hexfloat goldens in
 * test_run_determinism.cc were captured (one scalar solve per window
 * at its frame), so width 1 at jobs 1 is the reference. Wider chunks
 * must match it in every RunResult byte at every worker count: for a
 * policy that never changes its set (AllOn: full chunks), for the
 * paper's full policy (PracVT: its truth checks re-key the PDNs to
 * proposals during the run), for a set-changing policy without the
 * override (OracT: chunks end where a domain's set changes), and
 * under an active fault scenario (fault attribution by the epoch a
 * sample was scheduled in).
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
    cfg.noiseSamples = 24;  // several windows per chunk: real lanes
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
expectWideChunksMatchWidthOne(const floorplan::Chip &chip,
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
    // AllOn never changes sets, so every chunk is full; PracVT's truth
    // checks re-key each domain to its proposals during the run, so
    // finish() re-keys to every epoch's committed set.
    auto chip = floorplan::buildMiniChip(2);
    for (auto policy :
         {core::PolicyKind::AllOn, core::PolicyKind::PracVT})
        expectWideChunksMatchWidthOne(chip, policy);
}

TEST(CoalesceDeterminism, SetChangingPolicyFlushesBeforeRekey)
{
    // OracT re-selects active sets each epoch without the emergency
    // override, so a domain's chunks end where its committed set
    // changes: each window must solve under the set of the epoch that
    // scheduled it, not a later one.
    auto chip = floorplan::buildMiniChip(2);
    expectWideChunksMatchWidthOne(chip, core::PolicyKind::OracT);
}

TEST(CoalesceDeterminism, FaultScenarioMatchesPerEpochPath)
{
    // The finish-time reduction must attribute emergency cycles to
    // the epoch a sample was scheduled in (that epoch's recorded
    // fault flag), exactly as evaluation at the frame did.
    auto chip = floorplan::buildMiniChip(2);
    int n_vrs = static_cast<int>(chip.plan.vrs().size());
    ASSERT_GE(n_vrs, 4);
    const auto scenario = mixedFaultScenario(n_vrs);
    for (auto policy :
         {core::PolicyKind::AllOn, core::PolicyKind::PracVT})
        expectWideChunksMatchWidthOne(chip, policy, &scenario);
}

TEST(CoalesceDeterminism, TracesAndTimeSeriesSurviveDeferral)
{
    // The deepest-droop trace and its timestamp come out of the
    // finish-time reduction and the traced re-solve; they must match
    // the width-1 pick (same strict-> comparison sequence in (sample,
    // domain) order).
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
