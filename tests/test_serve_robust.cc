/**
 * @file
 * Robustness tests of the sweep server: deadline expiry, client
 * cancellation (explicit ServeCancel and mid-sweep disconnect),
 * queue-bound admission control, and a chaos-storm leg — every
 * scenario must leave the daemon serviceable, proven by a ping plus
 * a fresh sweep that is bit-identical to a direct in-process run.
 *
 * Like test_serve_run.cc this suite races the server's real thread
 * structure over a real Unix-domain socket and runs under TSan in CI
 * (the Serve prefix is part of the TSan job's regex).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "cache/serialize.hh"
#include "common/io.hh"
#include "serve/client.hh"
#include "serve/server.hh"
#include "shard/protocol.hh"
#include "shard/worker.hh"
#include "sim/sweep.hh"
#include "workload/profile.hh"

namespace tg {
namespace serve {
namespace {

/** The fast mini-chip config every serve test sweeps. */
sim::SimConfig testConfig()
{
    sim::SimConfig cfg;
    cfg.noiseSamples = 4;
    cfg.profilingEpochs = 8;
    return cfg;
}

const std::vector<std::string> kBenchmarks = {"rayt", "fft",
                                              "lu_ncb", "water_s"};
const std::vector<core::PolicyKind> kPolicies = {
    core::PolicyKind::AllOn, core::PolicyKind::OracT};

std::vector<std::uint8_t> testSetup()
{
    return shard::encodeBasicSetup(shard::ChipKind::Mini, 1,
                                   testConfig());
}

SweepMsg testSweepRequest(int jobs)
{
    SweepMsg m;
    m.setup = testSetup();
    m.benchmarks = kBenchmarks;
    for (auto pk : kPolicies)
        m.policies.push_back(static_cast<std::uint32_t>(pk));
    m.jobs = static_cast<std::uint32_t>(jobs);
    return m;
}

/** Byte-level equality via the bit-exact RunResult codec. */
void expectBitIdentical(const sim::SweepResult &a,
                        const sim::SweepResult &b)
{
    ASSERT_EQ(a.benchmarks, b.benchmarks);
    ASSERT_EQ(a.policies, b.policies);
    for (std::size_t i = 0; i < a.benchmarks.size(); ++i)
        for (std::size_t j = 0; j < a.policies.size(); ++j)
            EXPECT_EQ(cache::encodeRunResult(a.results[i][j]),
                      cache::encodeRunResult(b.results[i][j]))
                << a.benchmarks[i] << " / "
                << core::policyName(a.policies[j]);
}

class ServeRobust : public ::testing::Test
{
  protected:
    void TearDown() override
    {
        io::chaosConfigure(io::ChaosConfig{});
        if (server) {
            server->requestStop();
            server->wait();
        }
    }

    /** Boot a server with the scenario's options. */
    void boot(ServerOptions options)
    {
        options.socketPath = "/tmp/tg_serve_robust." +
                             std::to_string(::getpid()) + ".sock";
        if (options.jobs == 0)
            options.jobs = 2;
        server = std::make_unique<Server>(options);
        std::string err;
        ASSERT_TRUE(server->start(&err)) << err;
    }

    /** The single-process reference grid, computed once per suite. */
    static const sim::SweepResult &reference()
    {
        static sim::SweepResult ref = [] {
            floorplan::Chip chip = floorplan::buildMiniChip(1);
            sim::Simulation simulation(chip, testConfig());
            return sim::runSweep(simulation, kBenchmarks, kPolicies,
                                 false, 1);
        }();
        return ref;
    }

    /** The daemon still works: Pong plus a verified fresh sweep. */
    void expectServiceable()
    {
        Client client;
        std::string err;
        ASSERT_TRUE(client.connect(server->socketPath(), &err)) << err;
        EXPECT_TRUE(client.ping(&err)) << err;
        sim::SweepResult out;
        ASSERT_TRUE(client.sweep(testSweepRequest(2), out, &err))
            << err;
        expectBitIdentical(reference(), out);
    }

    /** Poll the server's counters until `done` says stop (bounded). */
    template <typename Pred> bool waitFor(Pred done)
    {
        for (int i = 0; i < 2000; ++i) {
            if (done(server->statsSnapshot()))
                return true;
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
        return false;
    }

    std::unique_ptr<Server> server;
};

TEST_F(ServeRobust, ExpiredDeadlineAbortsTheSweepMidFlight)
{
    boot(ServerOptions{});

    // A 1 ms budget (armed at admission) is gone before the first
    // cell finishes: the executor's next cancellation point unwinds
    // the request into a DeadlineExpired completion.
    Client client;
    std::string err;
    ASSERT_TRUE(client.connect(server->socketPath(), &err)) << err;
    SweepMsg req = testSweepRequest(2);
    req.deadlineMs = 1;
    sim::SweepResult out;
    DoneMsg done;
    ASSERT_FALSE(client.sweep(req, out, &err, &done));
    EXPECT_EQ(static_cast<DoneStatus>(done.status),
              DoneStatus::DeadlineExpired)
        << err;
    EXPECT_EQ(done.ok, 0u);

    // The slot was freed and nothing partial was published: a fresh
    // full-budget sweep still matches the direct computation.
    expectServiceable();
    const StatsReplyMsg stats = server->statsSnapshot();
    EXPECT_EQ(stats.requestsDeadline, 1u);
    EXPECT_EQ(stats.activeRequests, 0u);
}

TEST_F(ServeRobust, MidSweepDisconnectCancelsAndFreesTheExecutor)
{
    boot(ServerOptions{});

    // Submit a sweep over a raw socket, confirm it is executing, then
    // vanish: the poll thread trips the request's token, the executor
    // unwinds at the next cell boundary and the context returns to
    // the LRU.
    const int doomed = io::connectUnix(server->socketPath());
    ASSERT_GE(doomed, 0);
    ASSERT_TRUE(shard::writeFrameToFd(
        doomed, shard::FrameType::ServeSweep,
        encodeSweep(testSweepRequest(1))));
    ASSERT_TRUE(waitFor([](const StatsReplyMsg &s) {
        return s.activeRequests == 1;
    }));
    ::close(doomed); // hang up with the sweep in flight

    ASSERT_TRUE(waitFor([](const StatsReplyMsg &s) {
        return s.requestsCancelled == 1 && s.activeRequests == 0;
    }));
    expectServiceable();
}

TEST_F(ServeRobust, ServeCancelAbortsAnInFlightSweep)
{
    boot(ServerOptions{});

    Client client;
    std::string err;
    ASSERT_TRUE(client.connect(server->socketPath(), &err)) << err;

    sim::SweepResult out;
    DoneMsg done;
    std::string sweepErr;
    std::atomic<bool> accepted{false};
    std::thread sweeper([&] {
        accepted.store(client.sweep(testSweepRequest(1), out,
                                    &sweepErr, &done));
    });
    ASSERT_TRUE(waitFor([](const StatsReplyMsg &s) {
        return s.activeRequests == 1;
    }));
    ASSERT_TRUE(client.cancel(&err)) << err;
    sweeper.join();

    // The cancel raced the sweep's tail: almost always it lands
    // mid-flight and the sweep fails Cancelled; if the sweep already
    // finished, its success is the correct outcome and the cancel was
    // a silent no-op.
    if (!accepted.load()) {
        EXPECT_EQ(static_cast<DoneStatus>(done.status),
                  DoneStatus::Cancelled)
            << sweepErr;
        EXPECT_EQ(server->statsSnapshot().requestsCancelled, 1u);
    }
    expectServiceable();
}

TEST_F(ServeRobust, CancellingQueuedRequestsNeverRunsThem)
{
    ServerOptions options;
    options.jobs = 1;
    boot(options);

    // Occupy the executor (raw socket, reply never drained) so the
    // victim stays queued.
    const int blocker = io::connectUnix(server->socketPath());
    ASSERT_GE(blocker, 0);
    ASSERT_TRUE(shard::writeFrameToFd(
        blocker, shard::FrameType::ServeSweep,
        encodeSweep(testSweepRequest(1))));
    std::string err;
    ASSERT_TRUE(waitFor([](const StatsReplyMsg &s) {
        return s.activeRequests == 1;
    }));

    Client victim;
    ASSERT_TRUE(victim.connect(server->socketPath(), &err)) << err;
    sim::SweepResult out;
    DoneMsg done;
    std::string sweepErr;
    std::thread sweeper([&] {
        victim.sweep(testSweepRequest(1), out, &sweepErr, &done);
    });
    ASSERT_TRUE(waitFor([](const StatsReplyMsg &s) {
        return s.queueDepth == 1;
    }));

    // Cancelling a *queued* request is answered straight from the
    // poll thread: it never reaches the executor.
    ASSERT_TRUE(victim.cancel(&err)) << err;
    sweeper.join();
    EXPECT_EQ(static_cast<DoneStatus>(done.status),
              DoneStatus::Cancelled)
        << sweepErr;

    // The blocker's sweep is undisturbed by its neighbour's death:
    // read its stream up to the ServeDone (however long the sweep
    // takes on this build), then prove serviceability.
    shard::FrameParser parser;
    std::vector<std::uint8_t> donePayload;
    while (donePayload.empty())
        ASSERT_EQ(shard::pumpFrames(blocker, parser,
                                    [&](const shard::Frame &f) {
                                        if (f.type ==
                                            shard::FrameType::ServeDone)
                                            donePayload = f.payload;
                                        return true;
                                    }),
                  shard::PumpStatus::Ok);
    DoneMsg blockerDone;
    ASSERT_TRUE(decodeDone(donePayload, blockerDone));
    EXPECT_EQ(static_cast<DoneStatus>(blockerDone.status),
              DoneStatus::Ok)
        << blockerDone.error;
    ASSERT_TRUE(waitFor([](const StatsReplyMsg &s) {
        return s.activeRequests == 0 && s.queueDepth == 0;
    }));
    ::close(blocker);
    expectServiceable();
    EXPECT_GE(server->statsSnapshot().requestsCancelled, 1u);
}

TEST_F(ServeRobust, QueueBoundOverloadGetsBusyRepliesNotDeaths)
{
    ServerOptions options;
    options.jobs = 1;
    options.maxQueueDepth = 1;
    boot(options);

    // A executes, B waits in the single queue slot...
    Client a, b;
    std::string err;
    ASSERT_TRUE(a.connect(server->socketPath(), &err)) << err;
    ASSERT_TRUE(b.connect(server->socketPath(), &err)) << err;

    sim::SweepResult gridA, gridB;
    std::string errA, errB;
    std::thread ta([&] {
        EXPECT_TRUE(a.sweep(testSweepRequest(1), gridA, &errA))
            << errA;
    });
    ASSERT_TRUE(waitFor([](const StatsReplyMsg &s) {
        return s.activeRequests == 1;
    }));
    std::thread tb([&] {
        EXPECT_TRUE(b.sweep(testSweepRequest(1), gridB, &errB))
            << errB;
    });
    ASSERT_TRUE(waitFor([](const StatsReplyMsg &s) {
        return s.queueDepth == 1;
    }));

    // ...so C is over the bound and bounces immediately with the
    // server's fixed 200 ms retry hint — admission control, not a
    // hang.
    Client c;
    ASSERT_TRUE(c.connect(server->socketPath(), &err)) << err;
    sim::SweepResult gridC;
    DoneMsg done;
    std::string errC;
    EXPECT_FALSE(c.sweep(testSweepRequest(1), gridC, &errC, &done));
    EXPECT_EQ(static_cast<DoneStatus>(done.status), DoneStatus::Busy)
        << errC;
    EXPECT_EQ(done.retryAfterMs, 200u);

    // The admitted requests are untouched by the overload.
    ta.join();
    tb.join();
    expectBitIdentical(reference(), gridA);
    expectBitIdentical(reference(), gridB);
    const StatsReplyMsg stats = server->statsSnapshot();
    EXPECT_EQ(stats.requestsBusy, 1u);
    expectServiceable();
}

TEST_F(ServeRobust, ServedSweepSurvivesARecoverableChaosStorm)
{
    boot(ServerOptions{});

    // Short transfers and EINTR on every socket in the process: the
    // frame plumbing on both sides must retry its way to the same
    // bit-identical grid.
    io::ChaosConfig cfg;
    cfg.enabled = true;
    cfg.seed = 2026;
    cfg.shortRead = 0.25;
    cfg.shortWrite = 0.25;
    cfg.eintr = 0.1;
    io::chaosConfigure(cfg);

    Client client;
    std::string err;
    ASSERT_TRUE(client.connect(server->socketPath(), &err)) << err;
    sim::SweepResult out;
    ASSERT_TRUE(client.sweep(testSweepRequest(2), out, &err)) << err;

    io::chaosConfigure(io::ChaosConfig{});
    expectBitIdentical(reference(), out);
    EXPECT_GT(io::chaosCounters().shortReads +
                  io::chaosCounters().shortWrites,
              0u);
}

TEST_F(ServeRobust, ConnectWithRetryRidesOutALateBoot)
{
    // Start connecting before the server exists; boot it ~80 ms
    // later. The retry loop must land once the daemon answers pings.
    const std::string path = "/tmp/tg_serve_robust." +
                             std::to_string(::getpid()) + ".sock";
    std::thread booter([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(80));
        boot(ServerOptions{});
    });
    Client client;
    std::string err;
    const bool up = client.connectWithRetry(path, 10000, &err);
    booter.join();
    ASSERT_TRUE(up) << err;
    EXPECT_TRUE(client.ping(&err)) << err;

    // And a bounded wait against nothing gives up with an error.
    Client nobody;
    EXPECT_FALSE(nobody.connectWithRetry(
        path + ".nothing-listens-here", 30, &err));
    EXPECT_NE(err.find("not ready"), std::string::npos);
}

} // namespace
} // namespace serve
} // namespace tg
