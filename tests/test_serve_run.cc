/**
 * @file
 * End-to-end tests of the persistent sweep server: results served
 * over a real Unix-domain socket must be bit-identical to a direct
 * in-process runSweep()/run() at every jobs count, from concurrent
 * clients, and across warm repeats; invalid requests must produce
 * error replies without killing the daemon; Shutdown must drain.
 *
 * The suite runs under TSan in CI (the Serve group is part of the
 * TSan job's regex), so the server's thread structure — poll
 * thread, executor and its fan-out on the process pool — is raced
 * here deliberately.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>
#include <vector>

#include "cache/serialize.hh"
#include "common/io.hh"
#include "run_fixtures.hh"
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

/** testSetup() with `edit` applied to its config. */
std::vector<std::uint8_t> setupWith(void (*edit)(sim::SimConfig &))
{
    sim::SimConfig cfg = testConfig();
    edit(cfg);
    return shard::encodeBasicSetup(shard::ChipKind::Mini, 1, cfg);
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

/** The single-process reference grid, computed once per binary. */
const sim::SweepResult &referenceGrid()
{
    static sim::SweepResult ref = [] {
        floorplan::Chip chip = floorplan::buildMiniChip(1);
        sim::Simulation simulation(chip, testConfig());
        return sim::runSweep(simulation, kBenchmarks, kPolicies, false,
                             1);
    }();
    return ref;
}

class ServeDeterminism : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        ServerOptions options;
        options.socketPath = "/tmp/tg_serve_test." +
                             std::to_string(::getpid()) + ".sock";
        options.jobs = 4;
        server = std::make_unique<Server>(options);
        std::string err;
        ASSERT_TRUE(server->start(&err)) << err;
    }

    void TearDown() override
    {
        if (server) {
            server->requestStop();
            server->wait();
        }
    }

    sim::SweepResult served(int jobs)
    {
        Client client;
        std::string err;
        EXPECT_TRUE(client.connect(server->socketPath(), &err))
            << err;
        sim::SweepResult out;
        EXPECT_TRUE(client.sweep(testSweepRequest(jobs), out, &err))
            << err;
        return out;
    }

    std::unique_ptr<Server> server;
};

TEST_F(ServeDeterminism, ServedSweepMatchesDirectAtEveryJobsCount)
{
    for (int jobs : {0, 1, 4}) {
        sim::SweepResult grid = served(jobs);
        expectBitIdentical(referenceGrid(), grid);
    }
}

TEST_F(ServeDeterminism, WarmRepeatIsBitIdenticalAndReusesContext)
{
    const sim::SweepResult cold = served(4);
    const sim::SweepResult warm = served(4);
    expectBitIdentical(cold, warm);
    expectBitIdentical(referenceGrid(), warm);

    const StatsReplyMsg stats = server->statsSnapshot();
    EXPECT_EQ(stats.requestsSweep, 2u);
    EXPECT_EQ(stats.cellsServed,
              2 * kBenchmarks.size() * kPolicies.size());
    EXPECT_EQ(stats.contextsBuilt, 1u);  // one setup blob
    EXPECT_EQ(stats.contextsReused, 1u); // the warm repeat
}

TEST_F(ServeDeterminism, ConcurrentClientsBothGetIdenticalGrids)
{
    sim::SweepResult a, b;
    std::thread ta([&] { a = served(4); });
    std::thread tb([&] { b = served(1); });
    ta.join();
    tb.join();
    expectBitIdentical(referenceGrid(), a);
    expectBitIdentical(referenceGrid(), b);
}

TEST_F(ServeDeterminism, ServedSingleRunMatchesDirect)
{
    RunMsg req;
    req.setup = testSetup();
    req.benchmark = "fft";
    req.policy = static_cast<std::uint32_t>(core::PolicyKind::OracT);

    Client client;
    std::string err;
    ASSERT_TRUE(client.connect(server->socketPath(), &err)) << err;
    sim::RunResult servedRun;
    ASSERT_TRUE(client.run(req, servedRun, &err)) << err;

    floorplan::Chip chip = floorplan::buildMiniChip(1);
    sim::Simulation simulation(chip, testConfig());
    sim::RunResult direct =
        simulation.run(workload::profileByName("fft"),
                       core::PolicyKind::OracT, {});
    EXPECT_EQ(cache::encodeRunResult(servedRun),
              cache::encodeRunResult(direct));
}

TEST_F(ServeDeterminism, InvalidRequestsGetErrorsNotACrash)
{
    Client client;
    std::string err;
    ASSERT_TRUE(client.connect(server->socketPath(), &err)) << err;

    // Unknown benchmark.
    RunMsg bad;
    bad.setup = testSetup();
    bad.benchmark = "no_such_benchmark";
    bad.policy = 0;
    sim::RunResult out;
    EXPECT_FALSE(client.run(bad, out, &err));
    EXPECT_NE(err.find("no_such_benchmark"), std::string::npos);

    // Garbage setup blob.
    RunMsg badSetup;
    badSetup.setup = {1, 2, 3};
    badSetup.benchmark = "fft";
    badSetup.policy = 0;
    EXPECT_FALSE(client.run(badSetup, out, &err));

    // Cell index past the grid.
    SweepMsg badCells = testSweepRequest(1);
    badCells.cells = {999};
    sim::SweepResult sweepOut;
    EXPECT_FALSE(client.sweep(badCells, sweepOut, &err));

    // Well-formed requests carrying values the simulator asserts on
    // (or, for trackVr, indexes with): refused, never executed.
    std::vector<RunMsg> killers(5, badSetup);
    killers[0].setup = setupWith([](sim::SimConfig &c) {
        c.regulator = static_cast<sim::RegulatorChoice>(2);
    });
    killers[1].setup = setupWith(
        [](sim::SimConfig &c) { c.noiseCyclesTotal = 0; });
    killers[2].setup = setupWith([](sim::SimConfig &c) {
        c.noiseWarmupCycles = c.noiseCyclesTotal;
    });
    killers[3].setup = testSetup();
    killers[3].trackVr = 100000000;
    killers[4].setup =
        setupWith([](sim::SimConfig &c) { c.profilingEpochs = 2; });
    for (const RunMsg &req : killers) {
        DoneMsg done;
        EXPECT_FALSE(client.run(req, out, &err, &done));
        EXPECT_EQ(done.status,
                  static_cast<std::uint8_t>(DoneStatus::Error))
            << err;
    }

    // The daemon survived all of it and still serves correctly.
    EXPECT_TRUE(client.ping(&err)) << err;
    expectBitIdentical(referenceGrid(), served(1));
    RunMsg good;
    good.setup = testSetup();
    good.benchmark = "fft";
    good.policy = static_cast<std::uint32_t>(core::PolicyKind::OracT);
    ASSERT_TRUE(client.run(good, out, &err)) << err;
    EXPECT_EQ(cache::encodeRunResult(out),
              cache::encodeRunResult(referenceGrid().results[1][1]));

    EXPECT_EQ(server->statsSnapshot().requestsRejected, 8u);
}

TEST_F(ServeDeterminism, OutOfRangeRecordOptionsGetErrors)
{
    Client client;
    std::string err;
    ASSERT_TRUE(client.connect(server->socketPath(), &err)) << err;
    sim::RunResult out;

    RunMsg req;
    req.setup = testSetup();
    req.benchmark = "fft";
    req.policy = static_cast<std::uint32_t>(core::PolicyKind::AllOn);
    // Only -1 means "no tracked VR"; the mini chip has no VR 1000.
    for (std::int64_t vr : {std::int64_t{-2}, std::int64_t{1000}}) {
        req.trackVr = vr;
        EXPECT_FALSE(client.run(req, out, &err));
        EXPECT_NE(err.find("not a VR of the chip"), std::string::npos)
            << err;
    }
    req.trackVr = -1;
    // 2^32 + 1 must not truncate to one sample; 2001 is past the cap.
    for (std::int64_t n : {std::int64_t{-2}, (std::int64_t{1} << 32) + 1,
                           std::int64_t{2001}}) {
        req.noiseSamplesOverride = n;
        EXPECT_FALSE(client.run(req, out, &err));
        EXPECT_NE(err.find("noise sample override"), std::string::npos)
            << err;
    }

    EXPECT_TRUE(client.ping(&err)) << err;
    EXPECT_EQ(server->statsSnapshot().requestsRejected, 5u);
}

TEST_F(ServeDeterminism, ThreadCountDoesNotGrowWithContexts)
{
    // Jobs-1 runs on four setups that differ only in seed: each builds
    // a warm context whose noise fan-out borrows the process pool, so
    // the daemon's thread count stays where the first run left it.
    if (sim::processThreadCount() == 0)
        GTEST_SKIP() << "needs /proc/self/task";
    Client client;
    std::string err;
    ASSERT_TRUE(client.connect(server->socketPath(), &err)) << err;
    std::vector<std::size_t> counts;
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        sim::SimConfig cfg = testConfig();
        cfg.seed = seed;
        RunMsg req;
        req.setup =
            shard::encodeBasicSetup(shard::ChipKind::Mini, 2, cfg);
        req.benchmark = "fft";
        req.policy = static_cast<std::uint32_t>(core::PolicyKind::AllOn);
        sim::RunResult out;
        ASSERT_TRUE(client.run(req, out, &err)) << err;
        counts.push_back(sim::processThreadCount());
    }
    for (std::size_t i = 1; i < counts.size(); ++i)
        EXPECT_EQ(counts[i], counts[0]) << "after run " << i + 1;
    EXPECT_EQ(server->statsSnapshot().contextsBuilt, 4u);
}

TEST_F(ServeDeterminism, SweepCellSubsetFillsOnlyThoseSlots)
{
    SweepMsg req = testSweepRequest(1);
    req.cells = {0, 3}; // (rayt, all-on) and (fft, oracT)

    Client client;
    std::string err;
    ASSERT_TRUE(client.connect(server->socketPath(), &err)) << err;
    sim::SweepResult out;
    ASSERT_TRUE(client.sweep(req, out, &err)) << err;

    const sim::SweepResult &ref = referenceGrid();
    EXPECT_EQ(cache::encodeRunResult(out.results[0][0]),
              cache::encodeRunResult(ref.results[0][0]));
    EXPECT_EQ(cache::encodeRunResult(out.results[1][1]),
              cache::encodeRunResult(ref.results[1][1]));
    // Unswept slot stays default-constructed.
    EXPECT_TRUE(out.results[2][0].benchmark.empty());
}

TEST_F(ServeDeterminism, ShutdownFrameDrainsTheServer)
{
    // Queue a sweep, then a shutdown from a second client: the
    // request must complete (drain semantics), then the server must
    // exit and release the socket. Both clients connect before the
    // drain starts (a draining server stops accepting).
    Client stopper;
    std::string err;
    ASSERT_TRUE(stopper.connect(server->socketPath(), &err)) << err;

    sim::SweepResult grid;
    std::string sweepErr;
    std::thread sweeper([&] {
        Client client;
        std::string cerr;
        if (!client.connect(server->socketPath(), &cerr)) {
            sweepErr = cerr;
            return;
        }
        if (!client.sweep(testSweepRequest(4), grid, &cerr))
            sweepErr = cerr;
    });

    // Give the sweep time to reach the server's queue so the drain
    // actually has something pending (either outcome of the race is
    // correct; this just makes the interesting path the common one).
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    ASSERT_TRUE(stopper.shutdownServer(&err)) << err;

    sweeper.join();
    server->wait();
    EXPECT_TRUE(sweepErr.empty()) << sweepErr;
    expectBitIdentical(referenceGrid(), grid);

    // The socket is gone: a fresh connect must fail.
    Client late;
    EXPECT_FALSE(late.connect(server->socketPath(), &err));
    server.reset();
}

TEST(ServeEndpoint, ConnectedSocketpairServesBitIdenticallyAndExitsOnClose)
{
    // The sharded-sweep endpoint shape: a server whose only client is
    // one end of a socketpair, driven through the raw frame plumbing
    // exactly as the coordinator drives it.
    int sv[2] = {-1, -1};
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, sv),
              0);
    ServerOptions options;
    options.connectedFd = sv[1];
    options.jobs = 2;
    Server server(options);
    std::string err;
    ASSERT_TRUE(server.start(&err)) << err;

    const SweepMsg req = testSweepRequest(2);
    ASSERT_TRUE(shard::writeFrameToFd(sv[0], shard::FrameType::ServeSweep,
                                      encodeSweep(req)));
    sim::SweepResult grid = emptyGrid(req);
    shard::FrameParser parser;
    bool done = false;
    while (!done) {
        const shard::PumpStatus st = shard::pumpFrames(
            sv[0], parser, [&](const shard::Frame &frame) {
                std::uint64_t cell = 0;
                if (frame.type == shard::FrameType::ServeCell)
                    return placeCell(frame.payload, grid, cell);
                DoneMsg m;
                done = frame.type == shard::FrameType::ServeDone &&
                       decodeDone(frame.payload, m) && m.ok;
                return done;
            });
        ASSERT_EQ(st, shard::PumpStatus::Ok);
    }
    expectBitIdentical(referenceGrid(), grid);

    // No orphans: once the peer closes, the server drains and stops
    // on its own — no Shutdown frame, no requestStop().
    ::close(sv[0]);
    server.wait();
    EXPECT_EQ(server.statsSnapshot().requestsSweep, 1u);
}

/**
 * Serve one ServeRun on a scripted Unix-socket peer that answers with
 * `replies`, and return what Client::run made of it.
 */
bool runAgainstScript(
    const std::vector<std::pair<shard::FrameType,
                                std::vector<std::uint8_t>>> &replies,
    std::string *err)
{
    const std::string path = "/tmp/tg_serve_script." +
                             std::to_string(::getpid()) + ".sock";
    const int lfd = io::listenUnix(path, 1, err);
    if (lfd < 0)
        return false;
    // Connect before the peer accepts: the backlog holds the
    // connection, and a failed connect leaves no thread to unblock.
    Client client;
    if (!client.connect(path, err)) {
        ::close(lfd);
        ::unlink(path.c_str());
        return false;
    }
    std::thread peer([&] {
        const int fd = ::accept(lfd, nullptr, nullptr);
        if (fd < 0)
            return;
        shard::FrameParser parser;
        bool gotRun = false;
        while (!gotRun &&
               shard::pumpFrames(fd, parser,
                                 [&](const shard::Frame &frame) {
                                     gotRun = frame.type ==
                                              shard::FrameType::ServeRun;
                                     return true;
                                 }) == shard::PumpStatus::Ok) {
        }
        for (const auto &reply : replies)
            shard::writeFrameToFd(fd, reply.first, reply.second);
        ::close(fd);
    });
    RunMsg req;
    req.setup = testSetup();
    req.benchmark = "fft";
    req.policy = static_cast<std::uint32_t>(core::PolicyKind::OracT);
    sim::RunResult out;
    const bool ok = client.run(req, out, err);
    peer.join();
    ::close(lfd);
    ::unlink(path.c_str());
    return ok;
}

std::vector<std::uint8_t> cellFor(const std::string &benchmark)
{
    sim::RunResult r;
    r.benchmark = benchmark;
    r.policy = core::PolicyKind::OracT;
    CellMsg cell;
    cell.cell = 0;
    cell.result = cache::encodeRunResult(r);
    return encodeCell(cell);
}

std::vector<std::uint8_t> doneOk(std::uint64_t cells)
{
    DoneMsg done;
    done.ok = 1;
    done.status = static_cast<std::uint8_t>(DoneStatus::Ok);
    done.cells = cells;
    return encodeDone(done);
}

TEST(ServeClient, RunRepliesGetTheSweepReplyChecks)
{
    using shard::FrameType;
    std::string err;
    // Control: the scripted peer's well-formed reply is accepted.
    EXPECT_TRUE(runAgainstScript({{FrameType::ServeCell, cellFor("fft")},
                                  {FrameType::ServeDone, doneOk(1)}},
                                 &err))
        << err;
    // A cell labelled with another benchmark never lands in the slot.
    EXPECT_FALSE(runAgainstScript(
        {{FrameType::ServeCell, cellFor("rayt")},
         {FrameType::ServeDone, doneOk(1)}},
        &err));
    EXPECT_NE(err.find("malformed cell result"), std::string::npos)
        << err;
    // Ok with no cell: the count check refuses it.
    EXPECT_FALSE(
        runAgainstScript({{FrameType::ServeDone, doneOk(1)}}, &err));
    EXPECT_NE(err.find("does not match the cells received"),
              std::string::npos)
        << err;
    // Ok reporting no cell, with no cell, is still not a result.
    EXPECT_FALSE(
        runAgainstScript({{FrameType::ServeDone, doneOk(0)}}, &err));
}

} // namespace
} // namespace serve
} // namespace tg
