/**
 * @file
 * Tests of the content-addressed artifact cache (src/cache): the
 * fingerprint layer (golden digests + field sensitivity + knob
 * invariance), the in-memory LRU store, the bit-exact RunResult
 * serializer, the checksummed disk tier, and the end-to-end
 * cache-hit-equals-recompute contract of Simulation memoization.
 *
 * The golden digests pin the exact key derivation: a failure here
 * means the cache namespace silently moved (every existing disk
 * artifact orphaned) or — worse — aliased. Bump the version tag
 * inside the corresponding fingerprint function AND refresh the
 * golden together; never "fix" a golden alone.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <type_traits>
#include <unistd.h>

#include "cache/disk.hh"
#include "cache/fingerprint.hh"
#include "cache/serialize.hh"
#include "cache/store.hh"
#include "common/bytes.hh"
#include "common/fields.hh"
#include "fault/scenario.hh"
#include "floorplan/power8.hh"
#include "run_fixtures.hh"
#include "sim/simulation.hh"
#include "workload/profile.hh"

namespace tg {
namespace cache {
namespace {

/**
 * A temporary directory only the running test uses, named from the test
 * and the pid: parallel `ctest -j` processes of one fixture must not
 * delete each other's files.
 */
std::filesystem::path privateTempDir()
{
    const auto *info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    const long pid = static_cast<long>(::getpid());
    return std::filesystem::path(::testing::TempDir()) /
           (std::string("tg-") + info->test_suite_name() + "." +
            info->name() + "-" + std::to_string(pid));
}

// ===================================================================
// Fingerprint layer
// ===================================================================

TEST(Fingerprint, GoldenDigestsArePinned)
{
    // Primitive-absorb goldens: any change to the mixing function,
    // the domain-separation tags, or the finalizer shows up here.
    EXPECT_EQ(Hasher{}.digest().hex(),
              "01a01e22fd94a4f69be933f0394ae9f6");
    EXPECT_EQ(Hasher{}.u64(0).digest().hex(),
              "0a36a8711484967db701f8afdddc8508");
    EXPECT_EQ(Hasher{}.u64(1).digest().hex(),
              "469d30cecf437c4dc5e09e6cf695a41a");
    EXPECT_EQ(Hasher{}.f64(1.0).digest().hex(),
              "5c4c4cbc83ba99e5e2c701448a19f345");
    EXPECT_EQ(Hasher{}.str("").digest().hex(),
              "7338c45bccdc4fad99f70e546244e3fb");
    EXPECT_EQ(Hasher{}.str("thermogater").digest().hex(),
              "209eef87d203f0f0c6a2ebffb358f1ef");
}

TEST(Fingerprint, GoldenContentKeysArePinned)
{
    // Whole-input goldens: these are the actual cache-key components,
    // so a drift here orphans (or aliases) every stored artifact.
    EXPECT_EQ(chipFingerprint(floorplan::buildMiniChip(2)).hex(),
              "5ef56da182bb32f7195a1a594c69f1b3");
    EXPECT_EQ(chipFingerprint(floorplan::buildPower8Chip()).hex(),
              "5bbfb9f39246898c93051dd47b342698");
    EXPECT_EQ(configFingerprint(sim::SimConfig{}).hex(),
              "c75c6ce7c69fa7aee7d65cc558a61549");
    EXPECT_EQ(powerParamsFingerprint(power::PowerParams{}).hex(),
              "aa763c21af940a79cd93b771018e4e64");
    EXPECT_EQ(
        profileFingerprint(workload::profileByName("fft")).hex(),
        "4c9303a7c6b2dcac1f673f9f19a57fbc");
    EXPECT_EQ(recordOptionsFingerprint(sim::RecordOptions{}).hex(),
              "b3710d344b37c65823cc11992e9528b7");
}

TEST(Fingerprint, TypeTagsAndBoundariesDoNotAlias)
{
    // Domain separation: same raw payload through different typed
    // absorbs must not collide.
    EXPECT_NE(Hasher{}.u64(0).digest(), Hasher{}.f64(0.0).digest());
    EXPECT_NE(Hasher{}.u64(0).digest(), Hasher{}.str("").digest());
    // boolean() encodes true/false as u64 1/2 (a deliberate alias);
    // the two truth values themselves must stay distinct.
    EXPECT_NE(Hasher{}.boolean(true).digest(),
              Hasher{}.boolean(false).digest());
    // Field boundaries: concatenation must not alias across fields.
    EXPECT_NE(Hasher{}.str("ab").str("c").digest(),
              Hasher{}.str("a").str("bc").digest());
    // Prefix of a stream never aliases the stream (length folded in).
    EXPECT_NE(Hasher{}.u64(7).digest(),
              Hasher{}.u64(7).u64(0).digest());
    // -0.0 and +0.0 are distinct bit patterns, distinct hashes.
    EXPECT_NE(Hasher{}.f64(0.0).digest(),
              Hasher{}.f64(-0.0).digest());
}

/** Moves a config member of any listed kind off its value. */
template <class T>
void perturb(T &v)
{
    if constexpr (std::is_enum_v<T>)
        v = static_cast<T>(static_cast<int>(v) + 1);
    else if constexpr (std::is_floating_point_v<T>)
        v = v * 1.5 + 0.25;
    else
        v += 1;
}

/** Perturbs each given member of one parameter struct in turn and
 *  expects the config key to move every time; returns how many. */
template <class P, class... T>
std::size_t expectEachMovesTheKey(const char *group,
                                  P sim::SimConfig::*params,
                                  T P::*...members)
{
    const sim::SimConfig base;
    const Fingerprint ref = configFingerprint(base);
    int i = 0;
    (
        [&] {
            sim::SimConfig c = base;
            perturb(c.*params.*members);
            EXPECT_NE(configFingerprint(c), ref)
                << group << " member " << i;
            ++i;
        }(),
        ...);
    return sizeof...(members);
}

TEST(Fingerprint, ConfigFieldsChangeTheKey)
{
    // Every bit-visible member moves the key: the Hashed scalars of
    // kSimConfigFields, and each parameter struct's members.
    // BitInvisibleKnobsDoNotChangeTheKey covers the other three.
    const sim::SimConfig base;
    const Fingerprint ref = configFingerprint(base);
    std::size_t moved = 0;
    fields::forEach(sim::kSimConfigFields, [&]<class E>(const E &e) {
        using T = std::remove_cvref_t<decltype(base.*e.member)>;
        if constexpr ((E::flags & fields::Hashed) != 0 &&
                      std::is_scalar_v<T>) {
            sim::SimConfig c = base;
            perturb(c.*e.member);
            EXPECT_NE(configFingerprint(c), ref) << e.name;
            ++moved;
        }
    });
    EXPECT_EQ(moved, 9u);

    using thermal::ThermalParams;
    EXPECT_EQ(
        expectEachMovesTheKey(
            "thermalParams", &sim::SimConfig::thermalParams,
            &ThermalParams::gridW, &ThermalParams::gridH,
            &ThermalParams::spreaderN, &ThermalParams::dieThickness,
            &ThermalParams::kSilicon, &ThermalParams::cvSilicon,
            &ThermalParams::timThickness, &ThermalParams::kTim,
            &ThermalParams::spreaderThickness, &ThermalParams::kCopper,
            &ThermalParams::cvCopper, &ThermalParams::spreaderSide,
            &ThermalParams::rConvection,
            &ThermalParams::vrCouplingResistance, &ThermalParams::ambient,
            &ThermalParams::step),
        fields::memberCount<ThermalParams>());
    using power::PowerParams;
    EXPECT_EQ(
        expectEachMovesTheKey(
            "powerParams", &sim::SimConfig::powerParams,
            &PowerParams::densityIfu, &PowerParams::densityIsu,
            &PowerParams::densityExu, &PowerParams::densityLsu,
            &PowerParams::densityL2, &PowerParams::densityL3,
            &PowerParams::densityNoc, &PowerParams::densityMc,
            &PowerParams::staticShareAt80C, &PowerParams::leakageCalibTemp,
            &PowerParams::leakageDoubling, &PowerParams::logicLeakageBoost,
            &PowerParams::memoryLeakageDerate),
        fields::memberCount<PowerParams>());
    using pdn::PdnParams;
    EXPECT_EQ(expectEachMovesTheKey(
                  "pdnParams", &sim::SimConfig::pdnParams,
                  &PdnParams::nodePitch, &PdnParams::sheetResistance,
                  &PdnParams::decapPerMm2, &PdnParams::gridInductancePerM,
                  &PdnParams::cycleTime, &PdnParams::emergencyFrac),
              fields::memberCount<PdnParams>());
    using sensors::SensorParams;
    EXPECT_EQ(expectEachMovesTheKey(
                  "sensorParams", &sim::SimConfig::sensorParams,
                  &SensorParams::delay, &SensorParams::quantization,
                  &SensorParams::noiseSigma),
              fields::memberCount<SensorParams>());
    using sensors::PredictorParams;
    EXPECT_EQ(expectEachMovesTheKey(
                  "predictorParams", &sim::SimConfig::predictorParams,
                  &PredictorParams::sensitivity,
                  &PredictorParams::falseAlarmRate),
              fields::memberCount<PredictorParams>());
    using sensors::HealthParams;
    EXPECT_EQ(
        expectEachMovesTheKey(
            "healthParams", &sim::SimConfig::healthParams,
            &HealthParams::minPlausible, &HealthParams::maxPlausible,
            &HealthParams::maxStep, &HealthParams::freezeEps,
            &HealthParams::freezeReads, &HealthParams::freezeNeighbourMove,
            &HealthParams::neighbourTolerance,
            &HealthParams::readmitTolerance, &HealthParams::readmitReads),
        fields::memberCount<HealthParams>());
}

TEST(Fingerprint, BitInvisibleKnobsDoNotChangeTheKey)
{
    // These knobs are proven (tests/test_run_determinism.cc,
    // test_epoch_coalescing.cc) not to move a single result bit, so
    // runs differing only in them must share cache entries.
    sim::SimConfig base;
    const Fingerprint ref = configFingerprint(base);

    sim::SimConfig c = base;
    c.jobs = 4;
    EXPECT_EQ(configFingerprint(c), ref);

    c = base;
    c.cacheDir = "/somewhere/else";
    c.memoizeResults = !base.memoizeResults;
    EXPECT_EQ(configFingerprint(c), ref);
}

TEST(Fingerprint, ProfileContentsChangeTheKey)
{
    workload::BenchmarkProfile p = workload::profileByName("fft");
    const Fingerprint ref = profileFingerprint(p);
    p.meanUtilization += 0.01;
    EXPECT_NE(profileFingerprint(p), ref);

    // Two distinct profiles never share a key.
    EXPECT_NE(
        profileFingerprint(workload::profileByName("barnes")), ref);
}

TEST(Fingerprint, NullAndEmptyFaultScenarioHashAlike)
{
    // runMixed treats a null scenario and an empty one identically
    // (both take the clean path), so their record keys must match.
    sim::RecordOptions plain;
    fault::FaultScenario empty(1234);
    sim::RecordOptions with_empty;
    with_empty.faultScenario = &empty;
    EXPECT_EQ(recordOptionsFingerprint(plain),
              recordOptionsFingerprint(with_empty));

    fault::FaultScenario faulted(1234);
    fault::FaultEvent ev;
    ev.kind = fault::FaultKind::VrStuckOff;
    ev.target = 0;
    ev.start = 1e-4;
    ev.duration = 5e-4;
    faulted.add(ev);
    sim::RecordOptions with_fault;
    with_fault.faultScenario = &faulted;
    EXPECT_NE(recordOptionsFingerprint(plain),
              recordOptionsFingerprint(with_fault));
}

TEST(Fingerprint, HexIsStableAndParseable)
{
    Fingerprint fp{0x0123456789abcdefull, 0xfedcba9876543210ull};
    EXPECT_EQ(fp.hex(), "0123456789abcdeffedcba9876543210");
    EXPECT_EQ(Fingerprint{}.hex(),
              "0000000000000000""0000000000000000");
}

// ===================================================================
// In-memory store
// ===================================================================

Fingerprint
keyOf(std::uint64_t i)
{
    return Hasher{}.str("test-key").u64(i).digest();
}

TEST(ArtifactStore, PutGetHitMissAndClear)
{
    ArtifactStore s;
    const Fingerprint k = keyOf(1);
    EXPECT_EQ(s.get<int>(ArtifactKind::PowerTrace, k), nullptr);

    s.put<int>(ArtifactKind::PowerTrace, k,
               std::make_shared<const int>(42), sizeof(int));
    auto hit = s.get<int>(ArtifactKind::PowerTrace, k);
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(*hit, 42);

    // Kinds are separate namespaces: same key, different kind, miss.
    EXPECT_EQ(s.get<int>(ArtifactKind::Predictor, k), nullptr);

    auto st = s.stats();
    EXPECT_EQ(st.kind[0].hits, 1u);
    EXPECT_EQ(st.kind[0].misses, 1u);
    EXPECT_EQ(st.kind[0].inserts, 1u);

    s.clear();
    EXPECT_EQ(s.get<int>(ArtifactKind::PowerTrace, k), nullptr);
    EXPECT_EQ(s.stats().bytesTotal(), 0u);
}

TEST(ArtifactStore, FirstWriteWinsOnDuplicateKeys)
{
    // Racing same-key builders are benign by determinism; the store
    // keeps the resident copy so outstanding readers stay coherent.
    ArtifactStore s;
    const Fingerprint k = keyOf(2);
    s.put<int>(ArtifactKind::RunResult, k,
               std::make_shared<const int>(1), sizeof(int));
    s.put<int>(ArtifactKind::RunResult, k,
               std::make_shared<const int>(2), sizeof(int));
    EXPECT_EQ(*s.get<int>(ArtifactKind::RunResult, k), 1);
}

TEST(ArtifactStore, DisabledStoreMissesAndDropsPuts)
{
    ArtifactStore s;
    s.setEnabled(false);
    const Fingerprint k = keyOf(3);
    s.put<int>(ArtifactKind::PdnBase, k,
               std::make_shared<const int>(9), sizeof(int));
    EXPECT_EQ(s.get<int>(ArtifactKind::PdnBase, k), nullptr);
    s.setEnabled(true);
    EXPECT_EQ(s.get<int>(ArtifactKind::PdnBase, k), nullptr);
}

TEST(ArtifactStore, EvictsLeastRecentlyUsedUnderPressure)
{
    // Tiny budget: a 64-byte store holds one 48-byte entry. Insert
    // many, then check older ones left.
    ArtifactStore s(64);
    for (std::uint64_t i = 0; i < 8; ++i)
        s.put<int>(ArtifactKind::PowerTrace, keyOf(i),
                   std::make_shared<const int>(int(i)), 48);
    auto st = s.stats();
    EXPECT_GT(st.evictions, 0u);
    // The newest entry always survives (eviction keeps >= 1).
    EXPECT_NE(s.get<int>(ArtifactKind::PowerTrace, keyOf(7)), nullptr);
    // The oldest was evicted.
    EXPECT_EQ(s.get<int>(ArtifactKind::PowerTrace, keyOf(0)), nullptr);
}

TEST(ArtifactStore, ResetStatsZeroesRatesAndKeepsResidentBytes)
{
    const std::filesystem::path dir = privateTempDir();
    std::filesystem::remove_all(dir);
    ArtifactStore s(64);
    // Two 48-byte traces in 64 bytes: the second evicts the first,
    // and an 8-byte result fits beside it.
    s.put<int>(ArtifactKind::PowerTrace, keyOf(200),
               std::make_shared<const int>(1), 48);
    s.put<int>(ArtifactKind::PowerTrace, keyOf(201),
               std::make_shared<const int>(2), 48);
    s.put<int>(ArtifactKind::RunResult, keyOf(202),
               std::make_shared<const int>(3), 8);
    EXPECT_NE(s.get<int>(ArtifactKind::PowerTrace, keyOf(201)), nullptr);
    EXPECT_EQ(s.get<int>(ArtifactKind::PowerTrace, keyOf(200)), nullptr);

    DiskTier tier(dir.string(), &s);
    std::vector<std::uint8_t> payload;
    ASSERT_TRUE(tier.save(ArtifactKind::RunResult, keyOf(203),
                          {1, 2, 3}, "p"));
    EXPECT_TRUE(tier.load(ArtifactKind::RunResult, keyOf(203), payload));
    EXPECT_FALSE(tier.load(ArtifactKind::RunResult, keyOf(204), payload));
    std::ofstream(tier.pathFor(ArtifactKind::RunResult, keyOf(205)))
        << "not an artifact";
    EXPECT_FALSE(tier.load(ArtifactKind::RunResult, keyOf(205), payload));
    std::ofstream(dir / "run-result-0.tgc.tmp-0123456789abcdef")
        << "debris";
    EXPECT_EQ(tier.sweepOrphans(std::chrono::seconds(0)), 1u);

    const StoreStats before = s.stats();
    const auto &trace =
        before.kind[static_cast<std::size_t>(ArtifactKind::PowerTrace)];
    EXPECT_EQ(trace.hits, 1u);
    EXPECT_EQ(trace.misses, 1u);
    EXPECT_EQ(trace.inserts, 2u);
    EXPECT_EQ(trace.bytes, 48u);
    EXPECT_EQ(trace.evictions, 1u);
    EXPECT_EQ(before.evictions,
              before.total(&StoreStats::PerKind::evictions));
    EXPECT_EQ(before.evictions, 1u);
    EXPECT_EQ(before.diskHits, 1u);
    EXPECT_EQ(before.diskMisses, 1u);
    EXPECT_EQ(before.diskWrites, 1u);
    EXPECT_EQ(before.diskRejects, 1u);
    EXPECT_EQ(before.diskTmpSwept, 1u);

    s.resetStats();
    const StoreStats after = s.stats();
    for (std::size_t k = 0; k < after.kind.size(); ++k)
        counters::forEachCounter(
            after.kind[k], [&](const char *name, std::uint64_t value) {
                EXPECT_EQ(value, std::string(name) == "bytes"
                                     ? before.kind[k].bytes
                                     : 0u)
                    << artifactKindName(static_cast<ArtifactKind>(k))
                    << " " << name;
            });
    counters::forEachCounter(after, [](const char *name, std::uint64_t value) {
        EXPECT_EQ(value, 0u) << name;
    });
    EXPECT_EQ(after.bytesTotal(), 56u);

    // Residency stays consistent: dropping the entries empties it.
    s.clear();
    EXPECT_EQ(s.stats().bytesTotal(), 0u);
    std::filesystem::remove_all(dir);
}

TEST(ArtifactStore, GetOrBuildBuildsOnceThenHits)
{
    ArtifactStore s;
    const Fingerprint k = keyOf(5);
    int builds = 0;
    auto build = [&] {
        ++builds;
        return std::make_shared<const int>(7);
    };
    auto bytes = [](const int &) { return sizeof(int); };
    auto a = s.getOrBuild<int>(ArtifactKind::Predictor, k, build, bytes);
    auto b = s.getOrBuild<int>(ArtifactKind::Predictor, k, build, bytes);
    EXPECT_EQ(builds, 1);
    EXPECT_EQ(a.get(), b.get());
    EXPECT_EQ(*b, 7);
}

TEST(ArtifactStore, ConcurrentMixedAccessIsSafe)
{
    ArtifactStore s;
    std::vector<std::thread> threads;
    for (int t = 0; t < 8; ++t) {
        threads.emplace_back([&s, t] {
            auto bytes = [](const int &) { return sizeof(int); };
            for (std::uint64_t i = 0; i < 200; ++i) {
                const Fingerprint k = keyOf(i % 37);
                auto v = s.getOrBuild<int>(
                    ArtifactKind::RunResult, k,
                    [&] {
                        return std::make_shared<const int>(
                            int(i % 37));
                    },
                    bytes);
                ASSERT_NE(v, nullptr);
                // Whoever built it, content follows the key.
                EXPECT_EQ(*v, int(i % 37));
            }
            (void)t;
        });
    }
    for (auto &th : threads)
        th.join();
    auto st = s.stats();
    EXPECT_EQ(st.kind[3].inserts, 37u);
}

// ===================================================================
// Serialization + disk tier
// ===================================================================

/** A RunResult with every field (series included) populated. */
sim::RunResult
denseResult()
{
    sim::RunResult r;
    r.benchmark = "fft+lu_cb";
    r.policy = core::PolicyKind::PracVT;
    r.maxTmax = 0x1.f6e04cf2063d9p+5;
    r.hottestSpot = "core0.vr8";
    r.maxGradient = 14.375;
    r.maxNoiseFrac = 0.031;
    r.emergencyFrac = 0.002;
    r.avgRegulatorLoss = 3.25;
    r.avgEta = 0.853;
    r.avgActiveVrs = 13.5;
    r.meanPower = 18.75;
    r.overrideCount = 3;
    r.timeUs = {0.0, 0.5, 1.0, -0.0};
    r.totalPowerW = {18.0, 19.5};
    r.activeVrs = {16.0, 12.0};
    r.trackedVrTemp = {55.5, 56.25};
    r.trackedVrOn = {1, 0, 1};
    r.heatmap = {50.0, 51.0, 52.0, 53.0};
    r.heatmapW = 2;
    r.heatmapH = 2;
    r.heatmapTimeUs = 123.5;
    r.noiseTrace = {0.01, 0.02, 0.005};
    r.noiseTraceDomain = 5;
    r.noiseTraceTimeUs = 77.25;
    r.vrActivity = {1.0, 0.5, 0.0};
    r.vrAging = {2.0, 1.0, 0.25};
    r.agingImbalance = 1.375;
    r.resilience.scheduledFaults = 2;
    r.resilience.faultedEpochs = 5;
    r.resilience.degradedDecisions = 4;
    r.resilience.floorEngagements = 1;
    r.resilience.underSuppliedDecisions = 1;
    r.resilience.quarantineEvents = 2;
    r.resilience.quarantinedEpochs = 3;
    r.resilience.peakQuarantined = 2;
    r.resilience.detectionLatency = 1.5e-4;
    r.resilience.alertsSuppressed = 1;
    r.resilience.alertsInjected = 2;
    r.resilience.emergencyCyclesFaulted = 12;
    r.resilience.emergencyCyclesClean = 7;
    return r;
}

TEST(Serialize, RunResultRoundTripsBitExactly)
{
    const sim::RunResult r = denseResult();
    auto bytes = encodeRunResult(r);
    sim::RunResult back;
    ASSERT_TRUE(decodeRunResult(bytes.data(), bytes.size(), back));
    EXPECT_EQ(fields::firstDifference(r, back), "");

    // Default-constructed (empty-series) result round-trips too.
    sim::RunResult empty;
    auto ebytes = encodeRunResult(empty);
    sim::RunResult eback;
    ASSERT_TRUE(decodeRunResult(ebytes.data(), ebytes.size(), eback));
    EXPECT_EQ(fields::firstDifference(empty, eback), "");
}

TEST(Serialize, TruncationAndTrailingGarbageAreRejected)
{
    auto bytes = encodeRunResult(denseResult());
    sim::RunResult out;
    // Every truncation point must fail cleanly, never crash.
    for (std::size_t cut : {std::size_t(0), std::size_t(1),
                            std::size_t(4), bytes.size() / 2,
                            bytes.size() - 1})
        EXPECT_FALSE(decodeRunResult(bytes.data(), cut, out))
            << "truncated at " << cut;
    // Wrong magic.
    auto bad = bytes;
    bad[0] ^= 0xff;
    EXPECT_FALSE(decodeRunResult(bad.data(), bad.size(), out));
    // Trailing garbage (exhausted() check).
    auto longer = bytes;
    longer.push_back(0);
    EXPECT_FALSE(decodeRunResult(longer.data(), longer.size(), out));
}

TEST(Serialize, AbsurdVectorLengthIsRejectedNotAllocated)
{
    // A corrupt length prefix must fail the sanity cap, not attempt a
    // multi-gigabyte allocation.
    bytes::ByteWriter w;
    w.u32(0x54475231u); // kRunResultMagic
    w.str("x");
    w.u64(0);
    // Then a vector length far past the cap with no payload.
    w.u64(std::uint64_t(1) << 40);
    sim::RunResult out;
    EXPECT_FALSE(
        decodeRunResult(w.bytes().data(), w.bytes().size(), out));
}

class DiskTierTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        dir = privateTempDir();
        std::filesystem::remove_all(dir);
        stats = std::make_unique<ArtifactStore>();
    }
    void TearDown() override { std::filesystem::remove_all(dir); }

    std::filesystem::path dir;
    std::unique_ptr<ArtifactStore> stats;
};

TEST_F(DiskTierTest, SaveEvictReloadRoundTripsBitExactly)
{
    DiskTier tier(dir.string(), stats.get());
    const sim::RunResult r = denseResult();
    const Fingerprint key = keyOf(100);

    ASSERT_TRUE(tier.save(ArtifactKind::RunResult, key,
                          encodeRunResult(r), "test provenance"));
    EXPECT_TRUE(std::filesystem::exists(
        tier.pathFor(ArtifactKind::RunResult, key)));

    // Simulate memory-tier eviction: reload purely from disk.
    std::vector<std::uint8_t> payload;
    ASSERT_TRUE(tier.load(ArtifactKind::RunResult, key, payload));
    sim::RunResult back;
    ASSERT_TRUE(decodeRunResult(payload.data(), payload.size(), back));
    EXPECT_EQ(fields::firstDifference(r, back), "");

    auto st = stats->stats();
    EXPECT_EQ(st.diskWrites, 1u);
    EXPECT_EQ(st.diskHits, 1u);
    EXPECT_EQ(st.diskRejects, 0u);
}

TEST_F(DiskTierTest, MissingKindOrKeyMismatchMisses)
{
    DiskTier tier(dir.string(), stats.get());
    std::vector<std::uint8_t> payload;
    EXPECT_FALSE(
        tier.load(ArtifactKind::RunResult, keyOf(101), payload));
    EXPECT_EQ(stats->stats().diskMisses, 1u);

    // A file saved under one kind must not answer another (the file
    // header binds both kind and key).
    ASSERT_TRUE(tier.save(ArtifactKind::RunResult, keyOf(102),
                          encodeRunResult(denseResult()), "p"));
    std::filesystem::copy_file(
        tier.pathFor(ArtifactKind::RunResult, keyOf(102)),
        tier.pathFor(ArtifactKind::RunResult, keyOf(103)));
    EXPECT_FALSE(
        tier.load(ArtifactKind::RunResult, keyOf(103), payload));
    EXPECT_GT(stats->stats().diskRejects, 0u);
}

TEST_F(DiskTierTest, CorruptAndTruncatedFilesAreRejected)
{
    DiskTier tier(dir.string(), stats.get());
    const Fingerprint key = keyOf(104);
    ASSERT_TRUE(tier.save(ArtifactKind::RunResult, key,
                          encodeRunResult(denseResult()), "p"));
    const std::string path =
        tier.pathFor(ArtifactKind::RunResult, key);

    // Flip one payload byte: checksum must catch it.
    {
        std::fstream f(path, std::ios::in | std::ios::out |
                                 std::ios::binary);
        f.seekp(64);
        char c;
        f.seekg(64);
        f.get(c);
        c = static_cast<char>(c ^ 0x40);
        f.seekp(64);
        f.put(c);
    }
    std::vector<std::uint8_t> payload;
    EXPECT_FALSE(tier.load(ArtifactKind::RunResult, key, payload));

    // Truncate: length/checksum validation must catch it.
    ASSERT_TRUE(tier.save(ArtifactKind::RunResult, key,
                          encodeRunResult(denseResult()), "p"));
    std::filesystem::resize_file(
        path, std::filesystem::file_size(path) / 2);
    EXPECT_FALSE(tier.load(ArtifactKind::RunResult, key, payload));

    // Zero-length file.
    ASSERT_TRUE(tier.save(ArtifactKind::RunResult, key,
                          encodeRunResult(denseResult()), "p"));
    std::filesystem::resize_file(path, 0);
    EXPECT_FALSE(tier.load(ArtifactKind::RunResult, key, payload));

    EXPECT_GE(stats->stats().diskRejects, 3u);
}

TEST_F(DiskTierTest, InactiveTierNeverTouchesTheFilesystem)
{
    DiskTier tier("", stats.get());
    EXPECT_FALSE(tier.active());
    std::vector<std::uint8_t> payload;
    EXPECT_FALSE(
        tier.load(ArtifactKind::RunResult, keyOf(105), payload));
    EXPECT_FALSE(tier.save(ArtifactKind::RunResult, keyOf(105),
                           {1, 2, 3}, "p"));
}

// ===================================================================
// End-to-end: cache hit == recompute
// ===================================================================

sim::SimConfig
miniConfig()
{
    sim::SimConfig cfg;
    cfg.noiseSamples = 4;
    cfg.profilingEpochs = 8;
    return cfg;
}

class CacheDeterminism : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        dir = privateTempDir();
        std::filesystem::remove_all(dir);
        store().clear();
        store().setEnabled(true);
    }
    void TearDown() override
    {
        std::filesystem::remove_all(dir);
        store().clear();
        store().setEnabled(true);
    }

    std::filesystem::path dir;
};

TEST_F(CacheDeterminism, MemoHitEqualsRecomputeAcrossJobCounts)
{
    // The reference: caching fully disabled.
    auto chip = floorplan::buildMiniChip(2);
    store().setEnabled(false);
    sim::SimConfig plain = miniConfig();
    plain.memoizeResults = false;
    sim::Simulation ref(chip, plain);
    auto want = ref.run(workload::profileByName("fft"),
                        core::PolicyKind::PracVT);
    store().setEnabled(true);

    // Cold memoizing run at jobs=1 populates memory + disk; warm runs
    // at jobs=1 and jobs=4 must hit (jobs is excluded from the key)
    // and return every bit of the reference.
    sim::SimConfig memo = miniConfig();
    memo.cacheDir = dir.string();
    for (int jobs : {1, 4}) {
        sim::SimConfig cfg = memo;
        cfg.jobs = jobs;
        sim::Simulation s(chip, cfg);
        auto got = s.run(workload::profileByName("fft"),
                         core::PolicyKind::PracVT);
        EXPECT_EQ(fields::firstDifference(want, got), "");
    }
    // The second loop iteration must have been served by the memo.
    auto st = store().stats();
    EXPECT_GT(st.kind[int(ArtifactKind::RunResult)].hits +
                  st.diskHits,
              0u);
}

TEST_F(CacheDeterminism, DiskTierSurvivesMemoryEviction)
{
    auto chip = floorplan::buildMiniChip(1);
    sim::SimConfig cfg = miniConfig();
    cfg.cacheDir = dir.string();

    sim::Simulation cold(chip, cfg);
    auto want = cold.run(workload::profileByName("rayt"),
                         core::PolicyKind::OracVT);

    // Drop the memory tier entirely: the rerun must reload the
    // RunResult from disk, bit-identically.
    store().clear();
    const auto disk_hits_before = store().stats().diskHits;
    sim::Simulation warm(chip, cfg);
    auto got = warm.run(workload::profileByName("rayt"),
                        core::PolicyKind::OracVT);
    EXPECT_EQ(fields::firstDifference(want, got), "");
    EXPECT_GT(store().stats().diskHits, disk_hits_before);
}

TEST_F(CacheDeterminism, CorruptDiskArtifactFallsBackToRecompute)
{
    auto chip = floorplan::buildMiniChip(1);
    sim::SimConfig cfg = miniConfig();
    cfg.cacheDir = dir.string();

    sim::Simulation cold(chip, cfg);
    auto want = cold.run(workload::profileByName("fft"),
                         core::PolicyKind::AllOn);

    // Corrupt every cached file, drop the memory tier: the run must
    // reject the files, recompute, and still match bit for bit.
    for (const auto &e :
         std::filesystem::directory_iterator(dir)) {
        std::fstream f(e.path(), std::ios::in | std::ios::out |
                                     std::ios::binary);
        f.seekp(40);
        f.put('\x7f');
    }
    store().clear();
    const auto rejects_before = store().stats().diskRejects;
    sim::Simulation retry(chip, cfg);
    auto got = retry.run(workload::profileByName("fft"),
                         core::PolicyKind::AllOn);
    EXPECT_EQ(fields::firstDifference(want, got), "");
    EXPECT_GT(store().stats().diskRejects, rejects_before);
}

TEST_F(CacheDeterminism, MemoizationOffStillMatchesAndDoesNotWrite)
{
    // memoizeResults=false (or no cache dir) must keep the disk tier
    // untouched while the prebuild caches stay bit-invisible.
    auto chip = floorplan::buildMiniChip(1);
    sim::SimConfig cfg = miniConfig();
    cfg.cacheDir = dir.string();
    cfg.memoizeResults = false;

    sim::Simulation a(chip, cfg);
    auto r1 = a.run(workload::profileByName("fft"),
                    core::PolicyKind::PracVT);
    EXPECT_FALSE(std::filesystem::exists(dir));

    sim::Simulation b(chip, cfg); // prebuild caches hit here
    auto r2 = b.run(workload::profileByName("fft"),
                    core::PolicyKind::PracVT);
    EXPECT_EQ(fields::firstDifference(r1, r2), "");
}

} // namespace
} // namespace cache
} // namespace tg
