/** @file Integration tests of the end-to-end simulation. */

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "run_fixtures.hh"
#include "sim/simulation.hh"
#include "workload/profile.hh"

namespace tg {
namespace sim {
namespace {

/** A short synthetic benchmark to keep integration runs fast. */
workload::BenchmarkProfile
shortProfile(double mean_u, double didt)
{
    workload::BenchmarkProfile p = workload::profileByName("lu_ncb");
    p.name = "short";
    p.meanUtilization = mean_u;
    p.didtActivity = didt;
    p.roiDurationUs = 2000.0;
    return p;
}

/** Fast config: fewer noise samples and profiling epochs. */
SimConfig
fastConfig()
{
    SimConfig cfg;
    cfg.noiseSamples = 8;
    cfg.profilingEpochs = 12;
    return cfg;
}

class MiniSim : public ::testing::Test
{
  protected:
    MiniSim()
        : chip(floorplan::buildMiniChip(2)),
          simulation(chip, fastConfig())
    {
    }

    floorplan::Chip chip;
    Simulation simulation;
};

TEST_F(MiniSim, EveryPolicyCompletesWithSaneMetrics)
{
    auto profile = shortProfile(0.55, 0.5);
    for (auto kind : core::allPolicyKinds()) {
        auto r = simulation.run(profile, kind);
        SCOPED_TRACE(core::policyName(kind));
        EXPECT_GT(r.maxTmax, simulation.config().thermalParams.ambient);
        EXPECT_LT(r.maxTmax, 110.0);
        EXPECT_GE(r.maxGradient, 0.0);
        EXPECT_GE(r.maxNoiseFrac, 0.0);
        EXPECT_LT(r.maxNoiseFrac, 0.6);
        EXPECT_GE(r.emergencyFrac, 0.0);
        EXPECT_LE(r.emergencyFrac, 1.0);
        EXPECT_GT(r.meanPower, 0.0);
        EXPECT_LE(r.avgEta, 1.0);
    }
}

TEST_F(MiniSim, DeterministicAcrossRuns)
{
    auto profile = shortProfile(0.6, 0.6);
    auto a = simulation.run(profile, core::PolicyKind::PracVT);
    auto b = simulation.run(profile, core::PolicyKind::PracVT);
    EXPECT_EQ(a.maxTmax, b.maxTmax);
    EXPECT_EQ(a.maxGradient, b.maxGradient);
    EXPECT_EQ(a.maxNoiseFrac, b.maxNoiseFrac);
    EXPECT_EQ(a.emergencyFrac, b.emergencyFrac);
    EXPECT_EQ(a.avgRegulatorLoss, b.avgRegulatorLoss);
}

TEST_F(MiniSim, OffChipHasNoRegulatorFootprint)
{
    auto r = simulation.run(shortProfile(0.6, 0.4),
                            core::PolicyKind::OffChip);
    EXPECT_EQ(r.avgRegulatorLoss, 0.0);
    EXPECT_EQ(r.avgActiveVrs, 0.0);
    EXPECT_EQ(r.maxNoiseFrac, 0.0);
    EXPECT_EQ(r.avgEta, 1.0);
}

TEST_F(MiniSim, AllOnKeepsEveryRegulatorActive)
{
    auto r = simulation.run(shortProfile(0.6, 0.4),
                            core::PolicyKind::AllOn);
    EXPECT_DOUBLE_EQ(r.avgActiveVrs,
                     static_cast<double>(chip.plan.vrs().size()));
    for (double a : r.vrActivity)
        EXPECT_DOUBLE_EQ(a, 1.0);
}

TEST_F(MiniSim, GatingSavesConversionLossAndKeepsEta)
{
    auto profile = shortProfile(0.5, 0.4);
    auto all_on = simulation.run(profile, core::PolicyKind::AllOn);
    auto gated = simulation.run(profile, core::PolicyKind::OracT);
    EXPECT_LT(gated.avgRegulatorLoss, all_on.avgRegulatorLoss);
    EXPECT_GT(gated.avgEta, all_on.avgEta);
    EXPECT_LT(gated.avgActiveVrs, all_on.avgActiveVrs);
    // Gated operation stays near the 90% peak.
    EXPECT_GT(gated.avgEta, 0.85);
}

TEST_F(MiniSim, ThermallyAwareGatingBeatsNoiseAwareThermally)
{
    auto profile = shortProfile(0.55, 0.5);
    auto orac_t = simulation.run(profile, core::PolicyKind::OracT);
    auto orac_v = simulation.run(profile, core::PolicyKind::OracV);
    EXPECT_LE(orac_t.maxTmax, orac_v.maxTmax);
    EXPECT_LE(orac_t.maxGradient, orac_v.maxGradient);
    // ...and pays for it in voltage noise.
    EXPECT_GE(orac_t.maxNoiseFrac, orac_v.maxNoiseFrac);
}

TEST_F(MiniSim, RecordedSeriesHaveConsistentShapes)
{
    RecordOptions opts;
    opts.timeSeries = true;
    opts.trackVr = 3;
    opts.heatmap = true;
    auto r = simulation.run(shortProfile(0.6, 0.5),
                            core::PolicyKind::Naive, opts);
    EXPECT_EQ(r.timeUs.size(), r.totalPowerW.size());
    EXPECT_EQ(r.timeUs.size(), r.activeVrs.size());
    EXPECT_EQ(r.trackedVrTemp.size(), r.timeUs.size());
    EXPECT_EQ(r.trackedVrOn.size(), r.timeUs.size());
    EXPECT_EQ(r.heatmap.size(),
              static_cast<std::size_t>(r.heatmapW * r.heatmapH));
    EXPECT_FALSE(r.hottestSpot.empty());
    EXPECT_EQ(r.vrActivity.size(), chip.plan.vrs().size());
}

TEST_F(MiniSim, NoiseTraceRecordsWorstWindow)
{
    RecordOptions opts;
    opts.noiseTrace = true;
    auto r = simulation.run(shortProfile(0.6, 0.9),
                            core::PolicyKind::OracT, opts);
    ASSERT_FALSE(r.noiseTrace.empty());
    EXPECT_GE(r.noiseTraceDomain, 0);
    double peak = 0.0;
    for (double x : r.noiseTrace)
        peak = std::max(peak, x);
    EXPECT_NEAR(peak, r.maxNoiseFrac, 1e-12);
}

TEST_F(MiniSim, PredictorCalibrationReachesPaperQuality)
{
    // Eqn. 3 / Section 6.3: the linear VR model is accurate when
    // confined to regulator nodes; the paper keeps R^2 ~ 0.99.
    EXPECT_GT(simulation.predictorRSquared(), 0.95);
    const auto &pred = simulation.thermalPredictor();
    for (int v = 0; v < pred.size(); ++v)
        EXPECT_GT(pred.theta(v), 0.0) << "vr " << v;
}

TEST_F(MiniSim, EmergencyOverridesReduceNoise)
{
    auto profile = shortProfile(0.55, 0.95);
    auto prac_t = simulation.run(profile, core::PolicyKind::PracT);
    auto prac_vt = simulation.run(profile, core::PolicyKind::PracVT);
    EXPECT_LE(prac_vt.maxNoiseFrac, prac_t.maxNoiseFrac + 1e-9);
    EXPECT_LE(prac_vt.emergencyFrac, prac_t.emergencyFrac + 1e-9);
}

TEST_F(MiniSim, HigherUtilisationRaisesTemperatureAndPower)
{
    auto cool = simulation.run(shortProfile(0.3, 0.4),
                               core::PolicyKind::OracT);
    auto hot = simulation.run(shortProfile(0.85, 0.4),
                              core::PolicyKind::OracT);
    EXPECT_GT(hot.meanPower, cool.meanPower);
    EXPECT_GT(hot.maxTmax, cool.maxTmax);
    EXPECT_GT(hot.avgActiveVrs, cool.avgActiveVrs);
}

TEST(FullChipSim, PaperShapeAnchors)
{
    // A slower full-chip spot check of the paper's central
    // relationships on one high-power and one low-power benchmark.
    auto chip = floorplan::buildPower8Chip();
    SimConfig cfg;
    cfg.noiseSamples = 8;
    Simulation simulation(chip, cfg);

    const auto &chol = workload::profileByName("chol");
    const auto &rayt = workload::profileByName("rayt");

    auto chol_on = simulation.run(chol, core::PolicyKind::AllOn);
    auto chol_gate = simulation.run(chol, core::PolicyKind::OracT);
    auto rayt_on = simulation.run(rayt, core::PolicyKind::AllOn);
    auto rayt_gate = simulation.run(rayt, core::PolicyKind::OracT);

    double chol_save =
        1.0 - chol_gate.avgRegulatorLoss / chol_on.avgRegulatorLoss;
    double rayt_save =
        1.0 - rayt_gate.avgRegulatorLoss / rayt_on.avgRegulatorLoss;
    // Fig. 7: the busy benchmark saves least, the light one most.
    EXPECT_GT(chol_save, 0.02);
    EXPECT_LT(chol_save, 0.30);
    EXPECT_GT(rayt_save, 0.30);
    EXPECT_GT(rayt_save, chol_save + 0.15);

    // Off-chip regulation is the thermal floor (Fig. 9).
    auto chol_off = simulation.run(chol, core::PolicyKind::OffChip);
    EXPECT_GT(chol_on.maxTmax, chol_off.maxTmax + 2.0);
}

TEST(RunDeterminism, NoiseFanOutAddsNoThreadsPerSimulation)
{
    // Every Simulation's noise fan-out borrows the process pool, so
    // once the pool is as wide as the fan-out a further Simulation
    // adds no thread. The Simulations stay alive, with whatever they
    // hold, until the last count.
    if (processThreadCount() == 0)
        GTEST_SKIP() << "needs /proc/self/task";
    auto chip = floorplan::buildMiniChip(2); // 4 domains
    SimConfig cfg = fastConfig();
    cfg.jobs = 4;
    Simulation a(chip, cfg), b(chip, cfg), c(chip, cfg);
    std::vector<std::size_t> counts;
    for (Simulation *s : {&a, &b, &c}) {
        s->run(shortProfile(0.6, 0.5), core::PolicyKind::AllOn);
        counts.push_back(processThreadCount());
    }
    EXPECT_EQ(counts[1], counts[0]);
    EXPECT_EQ(counts[2], counts[0]);
}

TEST(RunDeterminism, InvalidTgJobsWarnsOncePerSimulation)
{
    // The noise width is resolved once per Simulation, not per
    // fan-out, so an invalid TG_JOBS warns once however many runs
    // fan out.
    auto chip = floorplan::buildMiniChip(2);
    setenv("TG_JOBS", "banana", 1);
    Simulation s(chip, fastConfig());
    testing::internal::CaptureStderr();
    s.run(shortProfile(0.6, 0.5), core::PolicyKind::AllOn);
    s.run(shortProfile(0.4, 0.5), core::PolicyKind::AllOn);
    const std::string err = testing::internal::GetCapturedStderr();
    unsetenv("TG_JOBS");
    std::size_t warnings = 0;
    for (auto at = err.find("TG_JOBS"); at != std::string::npos;
         at = err.find("TG_JOBS", at + 1))
        ++warnings;
    EXPECT_EQ(warnings, 1u) << err;
}

} // namespace
} // namespace sim
} // namespace tg
