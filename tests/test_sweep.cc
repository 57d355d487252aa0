/** @file Unit tests for the sweep helper and its parallel engine. */

#include <gtest/gtest.h>

#include "cache/store.hh"
#include "common/exec.hh"
#include "sim/sweep.hh"
#include "workload/profile.hh"

namespace tg {
namespace sim {
namespace {

class SweepTest : public ::testing::Test
{
  protected:
    SweepTest()
        : chip(floorplan::buildMiniChip(1)), simulation(chip, config())
    {
    }

    static SimConfig
    config()
    {
        SimConfig cfg;
        cfg.noiseSamples = 4;
        cfg.profilingEpochs = 8;
        return cfg;
    }

    floorplan::Chip chip;
    Simulation simulation;
};

TEST_F(SweepTest, RunsRequestedGrid)
{
    auto sweep = runSweep(simulation, {"rayt", "fft"},
                          {core::PolicyKind::AllOn,
                           core::PolicyKind::OracT});
    EXPECT_EQ(sweep.benchmarks.size(), 2u);
    EXPECT_EQ(sweep.policies.size(), 2u);
    ASSERT_EQ(sweep.results.size(), 2u);
    ASSERT_EQ(sweep.results[0].size(), 2u);
    EXPECT_EQ(sweep.results[0][0].benchmark, "rayt");
    EXPECT_EQ(sweep.results[0][1].policy, core::PolicyKind::OracT);
}

TEST_F(SweepTest, AggregatesComputeCorrectly)
{
    auto sweep = runSweep(simulation, {"rayt", "fft"},
                          {core::PolicyKind::AllOn});
    auto metric = [](const RunResult &r) { return r.maxTmax; };
    double a = sweep.at("rayt", core::PolicyKind::AllOn).maxTmax;
    double b = sweep.at("fft", core::PolicyKind::AllOn).maxTmax;
    EXPECT_NEAR(sweep.average(core::PolicyKind::AllOn, metric),
                0.5 * (a + b), 1e-12);
    EXPECT_DOUBLE_EQ(sweep.maximum(core::PolicyKind::AllOn, metric),
                     std::max(a, b));
}

TEST_F(SweepTest, SingleBenchmarkSweepAggregates)
{
    auto sweep = runSweep(simulation, {"fft"},
                          {core::PolicyKind::AllOn,
                           core::PolicyKind::Naive});
    auto metric = [](const RunResult &r) { return r.maxTmax; };
    // With one benchmark, average == maximum == the run itself.
    double v = sweep.at("fft", core::PolicyKind::Naive).maxTmax;
    EXPECT_DOUBLE_EQ(sweep.average(core::PolicyKind::Naive, metric),
                     v);
    EXPECT_DOUBLE_EQ(sweep.maximum(core::PolicyKind::Naive, metric),
                     v);
    EXPECT_EQ(sweep.at("fft", core::PolicyKind::Naive).benchmark,
              "fft");
}

TEST_F(SweepTest, LookupFailuresAreFatal)
{
    auto sweep = runSweep(simulation, {"rayt"},
                          {core::PolicyKind::AllOn});
    // Benchmark row exists but was not swept under the policy: the
    // failure names the policy instead of falling through to the
    // generic missing-benchmark scan.
    EXPECT_EXIT(sweep.at("rayt", core::PolicyKind::OracV),
                ::testing::ExitedWithCode(1),
                "policy OracV not part of the sweep for benchmark "
                "rayt");
    // Unknown benchmark: generic missing-entry failure.
    EXPECT_EXIT(sweep.at("barnes", core::PolicyKind::AllOn),
                ::testing::ExitedWithCode(1),
                "no sweep entry for benchmark barnes");
    EXPECT_DEATH(sweep.average(core::PolicyKind::OracV,
                               [](const RunResult &) { return 0.0; }),
                 "not part of the sweep");
    EXPECT_DEATH(sweep.maximum(core::PolicyKind::OracV,
                               [](const RunResult &) { return 0.0; }),
                 "not part of the sweep");
}

TEST_F(SweepTest, CellOutsideTheGridPanicsBeforeAnyWork)
{
    auto emit = [](std::size_t, RunResult &&) {};
    EXPECT_DEATH(runSweepCells(simulation, {"fft"},
                               {core::PolicyKind::AllOn}, {1}, 1, {},
                               emit),
                 "sweep cell index out of range");
    // With no policies every cell is outside the grid: the range
    // check must come before anything takes a cell modulo the
    // policy count.
    EXPECT_DEATH(runSweepCells(simulation, {"fft"}, {}, {0}, 1, {},
                               emit),
                 "sweep cell index out of range");
}

/** Bit identity of every RunResult member of every cell. */
void
expectIdentical(const SweepResult &a, const SweepResult &b)
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

TEST_F(SweepTest, ParallelMatchesSerialBitwise)
{
    // Cover a thermally-aware policy (the predictor fit shared
    // through the artifact store), the noise-aware one (PDN
    // transfer-resistance reads) and an emergency-override one
    // (per-run noise windows) across workers.
    std::vector<std::string> benchmarks = {"rayt", "fft"};
    std::vector<core::PolicyKind> policies = {
        core::PolicyKind::AllOn, core::PolicyKind::OracT,
        core::PolicyKind::OracV, core::PolicyKind::PracVT};

    auto serial = runSweep(simulation, benchmarks, policies, false, 1);
    auto parallel =
        runSweep(simulation, benchmarks, policies, false, 4);
    expectIdentical(serial, parallel);
}

TEST_F(SweepTest, StoreOffRunnersFitTheirOwnPredictorBitwise)
{
    // With the artifact store off no runner can take the caller's
    // predictor fit from it: every runner's context profiles on its
    // own. The pass is deterministic in (chip, config), so a jobs-4
    // grid of thermally-aware policies keeps the jobs-1 bits.
    const std::vector<std::string> benchmarks = {"rayt", "fft"};
    const std::vector<core::PolicyKind> policies = {
        core::PolicyKind::Naive, core::PolicyKind::OracT,
        core::PolicyKind::PracT, core::PolicyKind::PracVT};
    cache::store().setEnabled(false);
    Simulation serial_sim(chip, config());
    Simulation wide_sim(chip, config());
    auto serial = runSweep(serial_sim, benchmarks, policies, false, 1);
    auto wide = runSweep(wide_sim, benchmarks, policies, false, 4);
    cache::store().setEnabled(true);
    expectIdentical(serial, wide);
}

TEST_F(SweepTest, CallerSimulationIsRunnerZero)
{
    // A width-4 fan-out runs runner 0 on the caller's Simulation, so a
    // caller-owned SweepContexts holds one context per other runner.
    // Every cell still matches a jobs-1 run on a separate context.
    const std::vector<std::string> benchmarks = {"rayt", "fft"};
    const std::vector<core::PolicyKind> policies = {
        core::PolicyKind::AllOn, core::PolicyKind::OracT,
        core::PolicyKind::OracV, core::PolicyKind::PracVT};
    std::vector<std::size_t> cells(benchmarks.size() * policies.size());
    for (std::size_t c = 0; c < cells.size(); ++c)
        cells[c] = c;

    std::vector<RunResult> wide(cells.size()), serial(cells.size());
    SweepContexts contexts;
    runSweepCells(
        simulation, benchmarks, policies, cells, 4, {},
        [&](std::size_t c, RunResult &&r) { wide[c] = std::move(r); },
        &contexts);
    EXPECT_EQ(contexts.sims.size(), 3u);

    Simulation reference(chip, config());
    runSweepCells(reference, benchmarks, policies, cells, 1, {},
                  [&](std::size_t c, RunResult &&r) {
                      serial[c] = std::move(r);
                  });
    for (std::size_t c = 0; c < cells.size(); ++c)
        EXPECT_EQ(fields::firstDifference(wide[c], serial[c]), "")
            << "cell " << c;
}

TEST_F(SweepTest, JobsFromConfigAndEnvironment)
{
    SimConfig cfg = config();
    cfg.jobs = 3;
    Simulation sim3(chip, cfg);
    auto viaConfig = runSweep(sim3, {"fft"},
                              {core::PolicyKind::AllOn,
                               core::PolicyKind::Naive});

    setenv("TG_JOBS", "2", 1);
    auto viaEnv = runSweep(simulation, {"fft"},
                           {core::PolicyKind::AllOn,
                            core::PolicyKind::Naive});
    unsetenv("TG_JOBS");
    expectIdentical(viaConfig, viaEnv);
}

TEST_F(SweepTest, RepeatedSweepsOnOneContextAgree)
{
    // run() must not depend on solver state left by earlier runs on
    // the same Simulation — the property that makes per-runner
    // context reuse (and runner 0 on the caller's context)
    // deterministic.
    auto first = runSweep(simulation, {"rayt"},
                          {core::PolicyKind::OracV,
                           core::PolicyKind::OracT},
                          false, 1);
    auto second = runSweep(simulation, {"rayt"},
                           {core::PolicyKind::OracV,
                            core::PolicyKind::OracT},
                           false, 1);
    expectIdentical(first, second);
}

} // namespace
} // namespace sim
} // namespace tg
