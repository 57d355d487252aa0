/**
 * @file
 * End-to-end tests of the sharded multi-process sweep: the merged
 * grid must be bit-identical to a single-process runSweep() at every
 * endpoint count (each with its own guided shard sizes), including
 * when an endpoint is killed or hangs mid-shard and its cells are
 * reassigned.
 *
 * This suite has a custom main(): the coordinator re-execs *this*
 * binary as its serve endpoints, so main() must route endpoint
 * invocations into endpointMain() before gtest sees argv.
 */

#include <gtest/gtest.h>

#include <cstdlib>

#include "serve/coordinator.hh"
#include "shard/worker.hh"
#include "sim/sweep.hh"

namespace tg {
namespace serve {
namespace {

/** The fast mini-chip config shared by coordinator and workers. */
sim::SimConfig
testConfig()
{
    sim::SimConfig cfg;
    cfg.noiseSamples = 4;
    cfg.profilingEpochs = 8;
    return cfg;
}

/** Bit identity of every RunResult member of every cell. */
void
expectIdentical(const sim::SweepResult &a, const sim::SweepResult &b)
{
    ASSERT_EQ(a.benchmarks, b.benchmarks);
    ASSERT_EQ(a.policies, b.policies);
    for (const auto &bench : a.benchmarks)
        for (auto kind : a.policies)
            EXPECT_EQ(fields::firstDifference(a.at(bench, kind),
                                              b.at(bench, kind)),
                      "")
                << bench << " / " << core::policyName(kind);
}

class ShardDeterminism : public ::testing::Test
{
  protected:
    ShardDeterminism()
        : benchmarks({"rayt", "fft", "lu_ncb", "water_s"}),
          policies({core::PolicyKind::AllOn, core::PolicyKind::OracT})
    {
    }

    /** The single-process reference grid, computed once per suite. */
    const sim::SweepResult &
    reference()
    {
        static sim::SweepResult ref = [this] {
            floorplan::Chip chip = floorplan::buildMiniChip(1);
            sim::Simulation simulation(chip, testConfig());
            return sim::runSweep(simulation, benchmarks, policies,
                                 false, 1);
        }();
        return ref;
    }

    ShardedSweepOptions
    options(int processes)
    {
        ShardedSweepOptions sopt;
        sopt.benchmarks = benchmarks;
        sopt.policies = policies;
        sopt.processes = processes;
        sopt.jobsPerWorker = 1;
        sopt.setup = shard::encodeBasicSetup(shard::ChipKind::Mini, 1,
                                             testConfig());
        return sopt;
    }

    std::vector<std::string> benchmarks;
    std::vector<core::PolicyKind> policies;
};

TEST_F(ShardDeterminism, MatchesSingleProcessAcrossWorkerCounts)
{
    for (int processes : {1, 2, 4}) {
        ShardedSweepStats stats;
        sim::SweepResult merged =
            runShardedSweep(options(processes), &stats);
        expectIdentical(reference(), merged);
        EXPECT_EQ(stats.workersSpawned, processes);
        EXPECT_EQ(stats.cellsTotal,
                  benchmarks.size() * policies.size());
        EXPECT_EQ(stats.workerDeaths, 0) << processes << " workers";
        EXPECT_EQ(stats.duplicateCells, 0u);
        EXPECT_GT(stats.shardsDispatched, 0);
    }
}

TEST_F(ShardDeterminism, RecordOptionsTravelToWorkers)
{
    // Every RecordOptions scalar off its default: each one changes the
    // cells' bits, so a request mapping that drops any of them, on the
    // coordinator's side or on an endpoint server's, fails the
    // comparison.
    sim::RecordOptions opts;
    opts.timeSeries = true;
    opts.heatmap = true;
    opts.noiseTrace = true;
    opts.trackVr = 1;
    opts.noiseSamplesOverride = 2;

    floorplan::Chip chip = floorplan::buildMiniChip(1);
    sim::Simulation simulation(chip, testConfig());
    sim::SweepResult ref = sim::runSweep(
        simulation, benchmarks, policies, false, 1, opts);

    ShardedSweepOptions sopt = options(2);
    sopt.opts = opts;
    sim::SweepResult merged = runShardedSweep(sopt);
    expectIdentical(ref, merged);
}

TEST_F(ShardDeterminism, IntraWorkerThreadsKeepIdentity)
{
    ShardedSweepOptions sopt = options(2);
    sopt.jobsPerWorker = 2; // processes x threads
    sim::SweepResult merged = runShardedSweep(sopt);
    expectIdentical(reference(), merged);
}

TEST_F(ShardDeterminism, KilledWorkerCellsAreReassignedBitIdentically)
{
    // The coordinator SIGKILLs endpoint 1 when its second cell
    // arrives, before merging it; it must re-queue the unacknowledged
    // remainder of the shard and still merge a grid bit-identical to
    // the single-process reference.
    ::setenv("TG_SHARD_TEST_DIE", "1:1", 1);
    ShardedSweepStats stats;
    sim::SweepResult merged = runShardedSweep(options(2), &stats);
    ::unsetenv("TG_SHARD_TEST_DIE");

    expectIdentical(reference(), merged);
    EXPECT_GE(stats.workerDeaths, 1);
    EXPECT_GE(stats.shardsReassigned, 1);
}

TEST_F(ShardDeterminism, ImmediateWorkerDeathStillCompletes)
{
    // Endpoint 1 dies on its first cell, before anything of it is
    // merged: its whole shard moves to the survivor.
    ::setenv("TG_SHARD_TEST_DIE", "1:0", 1);
    ShardedSweepStats stats;
    sim::SweepResult merged = runShardedSweep(options(2), &stats);
    ::unsetenv("TG_SHARD_TEST_DIE");

    expectIdentical(reference(), merged);
    EXPECT_GE(stats.workerDeaths, 1);
}

TEST_F(ShardDeterminism, HungWorkerIsPingedOutAndReassignedBitIdentically)
{
    // The coordinator SIGSTOPs endpoint 1 on its first cell: the
    // process stays alive but stops answering Ping, so only the
    // liveness timeout can free its shard.
    ::setenv("TG_SHARD_TEST_DIE", "1:0:stop", 1);
    ShardedSweepOptions sopt = options(2);
    sopt.timeoutMs = 1000;
    ShardedSweepStats stats;
    sim::SweepResult merged = runShardedSweep(sopt, &stats);
    ::unsetenv("TG_SHARD_TEST_DIE");

    expectIdentical(reference(), merged);
    EXPECT_EQ(stats.workerDeaths, 1);
    EXPECT_GE(stats.shardsReassigned, 1);
}

TEST(ServeEndpointDeathTest, GarbageSetupEndsTheSweepWithTheEndpointError)
{
    // Every endpoint would reject this request the same way, so the
    // coordinator must stop with the endpoint's reason instead of
    // re-queueing forever or reporting a generic death.
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    ShardedSweepOptions sopt;
    sopt.benchmarks = {"fft"};
    sopt.policies = {core::PolicyKind::AllOn};
    sopt.setup = {1, 2, 3};
    EXPECT_EXIT(runShardedSweep(sopt), ::testing::ExitedWithCode(1),
                "invalid setup blob");

    // A well-formed blob naming a regulator that does not exist: the
    // endpoints must refuse it too, not abort on it one after another
    // (which ends the sweep with "every endpoint died" instead).
    sim::SimConfig cfg = testConfig();
    cfg.regulator = static_cast<sim::RegulatorChoice>(2);
    sopt.setup = shard::encodeBasicSetup(shard::ChipKind::Mini, 1, cfg);
    EXPECT_EXIT(runShardedSweep(sopt), ::testing::ExitedWithCode(1),
                "invalid setup blob");
}

} // namespace
} // namespace serve
} // namespace tg

int
main(int argc, char **argv)
{
    // Spawned by a coordinator under test: act as a sweep endpoint.
    if (tg::serve::isEndpointInvocation(argc, argv))
        return tg::serve::endpointMain(argc, argv);
    ::testing::InitGoogleTest(&argc, argv);
    return RUN_ALL_TESTS();
}
