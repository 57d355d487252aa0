/**
 * @file
 * Bit-identity tests of the finish-time noise solve.
 *
 * finish() solves every sampled window: each domain walks the samples
 * in order and solves up to pdn::DomainPdn::kMaxWindowBatch
 * consecutive samples whose epochs committed the same active set as
 * one lockstep chunk. The digests below were recorded with every
 * window solved alone (batch width 1, jobs 1), as the hexfloat goldens
 * in test_run_determinism.cc were captured (one scalar solve per
 * window at its frame). The chunked solve must reproduce them in
 * every RunResult byte at every worker count: for a policy that never
 * changes its set (AllOn: full chunks), for the paper's full policy
 * (PracVT: its truth checks re-key the PDNs to proposals during the
 * run), for a set-changing policy without the override (OracT: chunks
 * end where a domain's set changes), and under an active fault
 * scenario (fault attribution by the epoch a sample was scheduled
 * in).
 */

#include <gtest/gtest.h>

#include <cstdint>

#include "floorplan/power8.hh"
#include "run_fixtures.hh"
#include "sim/simulation.hh"
#include "workload/profile.hh"

namespace tg {
namespace sim {
namespace {

SimConfig
miniConfig(int jobs)
{
    SimConfig cfg;
    cfg.noiseSamples = 24;  // several windows per chunk: real lanes
    cfg.profilingEpochs = 8;
    cfg.jobs = jobs;
    return cfg;
}

/** fft under `policy` at jobs {1, 4} against the width-1 digest. */
void
expectChunksMatchWidthOne(const floorplan::Chip &chip,
                          core::PolicyKind policy, std::uint64_t digest,
                          const fault::FaultScenario *scenario = nullptr)
{
    RecordOptions opts;
    opts.faultScenario = scenario;
    for (int jobs : {1, 4}) {
        Simulation s(chip, miniConfig(jobs));
        const std::uint64_t got = resultDigest(
            s.run(workload::profileByName("fft"), policy, opts));
        EXPECT_EQ(got, digest) << core::policyName(policy) << " jobs "
                               << jobs << " digest 0x" << std::hex << got;
    }
}

TEST(CoalesceDeterminism, MatchesPerEpochPathAcrossJobsAndWidths)
{
    // AllOn never changes sets, so every chunk is full; PracVT's truth
    // checks re-key each domain to its proposals during the run, so
    // finish() re-keys to every epoch's committed set.
    auto chip = floorplan::buildMiniChip(2);
    expectChunksMatchWidthOne(chip, core::PolicyKind::AllOn,
                              0x7ce232e2e2005ec4ull);
    expectChunksMatchWidthOne(chip, core::PolicyKind::PracVT,
                              0x708b43a409a96e6dull);
}

TEST(CoalesceDeterminism, SetChangingPolicyFlushesBeforeRekey)
{
    // OracT re-selects active sets each epoch without the emergency
    // override, so a domain's chunks end where its committed set
    // changes: each window must solve under the set of the epoch that
    // scheduled it, not a later one.
    auto chip = floorplan::buildMiniChip(2);
    expectChunksMatchWidthOne(chip, core::PolicyKind::OracT,
                              0xa04b4bc2e109a756ull);
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
    expectChunksMatchWidthOne(chip, core::PolicyKind::AllOn,
                              0xa72435d91ae75cb5ull, &scenario);
    expectChunksMatchWidthOne(chip, core::PolicyKind::PracVT,
                              0x517074002da7a0aaull, &scenario);
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
    Simulation s(chip, miniConfig(1));
    auto r = s.run(workload::profileByName("rayt"),
                   core::PolicyKind::AllOn, opts);
    ASSERT_FALSE(r.noiseTrace.empty());
    const std::uint64_t digest = resultDigest(r);
    EXPECT_EQ(digest, 0x1ae746da0db3ec73ull)
        << "digest 0x" << std::hex << digest;
}

} // namespace
} // namespace sim
} // namespace tg
