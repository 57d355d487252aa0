/**
 * @file
 * Deterministic I/O chaos harness: the TG_IO_FAULTS spec grammar, the
 * seeded decision sequence, and the retry/recovery behaviour of every
 * consumer — writeAll, pumpFrames/FrameParser and the disk cache
 * tier — under each fault class.
 *
 * Chaos state is process-global, so every test installs its config
 * with chaosConfigure() and restores the disabled default on exit
 * (the ChaosGuard fixture); nothing here depends on TG_IO_FAULTS.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#ifdef __unix__
#include <unistd.h>
#endif

#include "cache/disk.hh"
#include "common/io.hh"
#include "shard/protocol.hh"

namespace tg {
namespace io {
namespace {

/** Install a config for the test body, restore "disabled" after. */
class IoChaos : public ::testing::Test
{
  protected:
    void SetUp() override
    {
#ifndef __unix__
        GTEST_SKIP() << "chaos I/O requires a POSIX host";
#endif
        chaosConfigure(ChaosConfig{});
        chaosResetCounters();
    }
    void TearDown() override
    {
        chaosConfigure(ChaosConfig{});
        chaosResetCounters();
    }

    static ChaosConfig recoverable(std::uint64_t seed)
    {
        ChaosConfig cfg;
        cfg.enabled = true;
        cfg.seed = seed;
        cfg.shortRead = 0.35;
        cfg.shortWrite = 0.35;
        cfg.eintr = 0.2;
        return cfg;
    }
};

TEST_F(IoChaos, ParseAcceptsTheFullGrammar)
{
    ChaosConfig cfg;
    std::string err;
    ASSERT_TRUE(chaosParse("seed=77,short-read=0.25,short-write=0.5,"
                           "eintr=0.1,reset=0.01,enospc=1",
                           cfg, &err))
        << err;
    EXPECT_TRUE(cfg.enabled);
    EXPECT_EQ(cfg.seed, 77u);
    EXPECT_DOUBLE_EQ(cfg.shortRead, 0.25);
    EXPECT_DOUBLE_EQ(cfg.shortWrite, 0.5);
    EXPECT_DOUBLE_EQ(cfg.eintr, 0.1);
    EXPECT_DOUBLE_EQ(cfg.reset, 0.01);
    EXPECT_DOUBLE_EQ(cfg.enospc, 1.0);

    // The empty spec (and a seed with no rates) parse as disabled.
    ChaosConfig off;
    ASSERT_TRUE(chaosParse("", off, &err));
    EXPECT_FALSE(off.enabled);
    ASSERT_TRUE(chaosParse("seed=5", off, &err));
    EXPECT_FALSE(off.enabled);
}

TEST_F(IoChaos, ParseRejectsMalformedSpecs)
{
    ChaosConfig cfg;
    cfg.seed = 123; // sentinel: a failed parse must not touch `out`
    std::string err;
    for (const char *bad : {
             "sed=1",              // unknown key
             "short-read",         // not key=value
             "seed=abc",           // seed not a number
             "eintr=zero",         // rate not a number
             "eintr=1.5",          // rate above 1
             "reset=-0.1",         // rate below 0
             "short-write=0.5x",   // trailing garbage
         }) {
        err.clear();
        EXPECT_FALSE(chaosParse(bad, cfg, &err)) << bad;
        EXPECT_FALSE(err.empty()) << bad;
        EXPECT_EQ(cfg.seed, 123u) << bad;
    }
}

#ifdef __unix__

/** Pipe with a reader thread draining into `sink` (raw read(2), so
 *  the reader consumes no chaos op indices). */
struct DrainedPipe
{
    int fds[2] = {-1, -1};
    std::vector<std::uint8_t> sink;
    std::thread reader;

    DrainedPipe()
    {
        EXPECT_EQ(::pipe(fds), 0);
        reader = std::thread([this] {
            std::uint8_t buf[4096];
            for (;;) {
                const long n = ::read(fds[0], buf, sizeof buf);
                if (n <= 0)
                    break;
                sink.insert(sink.end(), buf, buf + n);
            }
        });
    }
    void closeWriter()
    {
        if (fds[1] >= 0)
            ::close(fds[1]);
        fds[1] = -1;
    }
    ~DrainedPipe()
    {
        closeWriter();
        if (reader.joinable())
            reader.join();
        ::close(fds[0]);
    }
};

std::vector<std::uint8_t> patternBuffer(std::size_t n)
{
    std::vector<std::uint8_t> buf(n);
    for (std::size_t i = 0; i < n; ++i)
        buf[i] = static_cast<std::uint8_t>(i * 31 + (i >> 8));
    return buf;
}

TEST_F(IoChaos, WriteAllDeliversEveryByteUnderShortWritesAndEintr)
{
    const std::vector<std::uint8_t> payload = patternBuffer(1 << 18);
    chaosConfigure(recoverable(1));
    {
        DrainedPipe pipe;
        ASSERT_TRUE(
            writeAll(pipe.fds[1], payload.data(), payload.size()));
        pipe.closeWriter();
        pipe.reader.join();
        EXPECT_EQ(pipe.sink, payload);
    }
    // The storm actually happened: both recoverable classes fired.
    const ChaosCounters c = chaosCounters();
    EXPECT_GT(c.shortWrites, 0u);
    EXPECT_GT(c.eintrs, 0u);
    EXPECT_EQ(c.resets, 0u);
}

TEST_F(IoChaos, DecisionSequenceReplaysExactlyForAFixedSeed)
{
    const std::vector<std::uint8_t> payload = patternBuffer(1 << 16);
    auto storm = [&] {
        DrainedPipe pipe;
        EXPECT_TRUE(
            writeAll(pipe.fds[1], payload.data(), payload.size()));
        return chaosCounters();
    };

    chaosConfigure(recoverable(42)); // resets the op index
    chaosResetCounters();
    const ChaosCounters first = storm();

    chaosConfigure(recoverable(42));
    chaosResetCounters();
    const ChaosCounters again = storm();

    EXPECT_EQ(first.ops, again.ops);
    EXPECT_EQ(first.shortWrites, again.shortWrites);
    EXPECT_EQ(first.eintrs, again.eintrs);

    // A different seed draws a different storm (with overwhelming
    // probability for these rates and op counts).
    chaosConfigure(recoverable(43));
    chaosResetCounters();
    const ChaosCounters other = storm();
    EXPECT_TRUE(first.ops != other.ops ||
                first.shortWrites != other.shortWrites ||
                first.eintrs != other.eintrs);
}

TEST_F(IoChaos, PumpFramesDeliversIntactFramesUnderShortReadsAndEintr)
{
    // Write the frames with chaos off, then storm the read side.
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    std::vector<std::vector<std::uint8_t>> payloads;
    for (std::size_t i = 0; i < 8; ++i)
        payloads.push_back(patternBuffer(64 + i * 257));
    for (const auto &p : payloads)
        ASSERT_TRUE(
            shard::writeFrameToFd(fds[1], shard::FrameType::ServeCell,
                                  p));
    ::close(fds[1]);

    chaosConfigure(recoverable(7));
    shard::FrameParser parser;
    std::vector<shard::Frame> got;
    shard::PumpStatus st;
    do {
        st = shard::pumpFrames(fds[0], parser,
                               [&](const shard::Frame &f) {
                                   got.push_back(f);
                                   return true;
                               });
    } while (st == shard::PumpStatus::Ok);
    ::close(fds[0]);

    EXPECT_EQ(st, shard::PumpStatus::Eof);
    ASSERT_EQ(got.size(), payloads.size());
    for (std::size_t i = 0; i < payloads.size(); ++i) {
        EXPECT_EQ(got[i].type, shard::FrameType::ServeCell);
        EXPECT_EQ(got[i].payload, payloads[i]);
    }
    EXPECT_GT(chaosCounters().shortReads, 0u);
}

TEST_F(IoChaos, ResetSurfacesAsConnectionDeathNotACrash)
{
    ChaosConfig cfg;
    cfg.enabled = true;
    cfg.seed = 3;
    cfg.reset = 1.0;
    chaosConfigure(cfg);

    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    const std::vector<std::uint8_t> payload = patternBuffer(64);
    EXPECT_FALSE(writeAll(fds[1], payload.data(), payload.size()));

    shard::FrameParser parser;
    EXPECT_EQ(shard::pumpFrames(fds[0], parser,
                                [](const shard::Frame &) {
                                    return true;
                                }),
              shard::PumpStatus::Error);
    EXPECT_GE(chaosCounters().resets, 2u);
    ::close(fds[0]);
    ::close(fds[1]);
}

TEST_F(IoChaos, DisabledShimIsARawPassThrough)
{
    EXPECT_FALSE(chaosEnabled());
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    const std::vector<std::uint8_t> payload = patternBuffer(1 << 12);
    ASSERT_TRUE(writeAll(fds[1], payload.data(), payload.size()));
    EXPECT_TRUE(chaosDiskWriteAllowed());
    // No op indices are consumed when the shim is off.
    EXPECT_EQ(chaosCounters().ops, 0u);
    ::close(fds[0]);
    ::close(fds[1]);
}

#endif // __unix__

// ===================================================================
// Disk tier under chaos: ENOSPC rejection and crash-debris hygiene
// ===================================================================

class DiskChaos : public IoChaos
{
  protected:
    void SetUp() override
    {
        IoChaos::SetUp();
        static int counter = 0;
        // A unique root per test: the constructor's orphan auto-sweep
        // runs once per (process, directory), and parallel `ctest -j`
        // processes must not share one.
        long pid = 0;
#ifdef __unix__
        pid = static_cast<long>(::getpid());
#endif
        dir = std::filesystem::path(::testing::TempDir()) /
              ("tg-chaos-disk-" + std::to_string(pid) + "-" +
               std::to_string(++counter));
        std::filesystem::remove_all(dir);
        stats = std::make_unique<cache::ArtifactStore>();
    }
    void TearDown() override
    {
        std::filesystem::remove_all(dir);
        IoChaos::TearDown();
    }

    static cache::Fingerprint keyOf(std::uint64_t i)
    {
        return cache::Hasher{}.str("chaos-key").u64(i).digest();
    }

    std::filesystem::path dir;
    std::unique_ptr<cache::ArtifactStore> stats;
};

TEST_F(DiskChaos, EnospcFailsSaveThenRecoversWhenSpaceReturns)
{
    cache::DiskTier tier(dir.string(), stats.get());
    const cache::Fingerprint key = keyOf(1);
    const std::vector<std::uint8_t> payload = {1, 2, 3, 4, 5};

    ChaosConfig cfg;
    cfg.enabled = true;
    cfg.seed = 9;
    cfg.enospc = 1.0;
    chaosConfigure(cfg);

    EXPECT_FALSE(
        tier.save(cache::ArtifactKind::RunResult, key, payload, "p"));
    EXPECT_FALSE(std::filesystem::exists(
        tier.pathFor(cache::ArtifactKind::RunResult, key)));
    EXPECT_GE(chaosCounters().enospcs, 1u);

    // The full-disk episode ends; the same save now lands and reads
    // back intact — the cache stayed best-effort throughout.
    chaosConfigure(ChaosConfig{});
    ASSERT_TRUE(
        tier.save(cache::ArtifactKind::RunResult, key, payload, "p"));
    std::vector<std::uint8_t> back;
    ASSERT_TRUE(
        tier.load(cache::ArtifactKind::RunResult, key, back));
    EXPECT_EQ(back, payload);
}

TEST_F(DiskChaos, OrphanTempFilesAreSweptAgedGatedAndCounted)
{
    namespace fs = std::filesystem;
    fs::create_directories(dir);
    const fs::path aged = dir / "runresult-feed.tmp-0123456789abcdef";
    const fs::path young = dir / "runresult-beef.tmp-fedcba9876543210";
    const fs::path keeper = dir / "runresult-cafe0123.tgc";
    for (const fs::path &p : {aged, young, keeper})
        std::ofstream(p) << "debris";
    // Age one orphan (and the published file) past the safety margin.
    const auto old_time =
        fs::file_time_type::clock::now() - std::chrono::hours(2);
    fs::last_write_time(aged, old_time);
    fs::last_write_time(keeper, old_time);

    // Opening the tier auto-sweeps: the aged orphan goes, the young
    // one (a concurrent writer's live temp file) and the published
    // artifact stay.
    cache::DiskTier tier(dir.string(), stats.get());
    EXPECT_FALSE(fs::exists(aged));
    EXPECT_TRUE(fs::exists(young));
    EXPECT_TRUE(fs::exists(keeper));
    EXPECT_EQ(stats->stats().diskTmpSwept, 1u);

    // An explicit zero-age sweep reclaims the young orphan too.
    EXPECT_EQ(tier.sweepOrphans(std::chrono::seconds(0)), 1u);
    EXPECT_FALSE(fs::exists(young));
    EXPECT_TRUE(fs::exists(keeper));
    EXPECT_EQ(stats->stats().diskTmpSwept, 2u);
}

} // namespace
} // namespace io
} // namespace tg
