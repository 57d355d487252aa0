/**
 * @file
 * Pure tests of the sweep-server payload codecs and the shared
 * connection plumbing: round trips, truncation/garbage rejection,
 * and the socket-path resolution ladder. End-to-end server behaviour
 * lives in test_serve_run.cc.
 */

#include <gtest/gtest.h>

#include <cstdlib>

#include "cache/serialize.hh"
#include "common/bytes.hh"
#include "serve/protocol.hh"

namespace tg {
namespace serve {
namespace {

RunMsg sampleRun()
{
    RunMsg m;
    m.setup = {1, 2, 3, 4, 5};
    m.benchmark = "rayt";
    m.policy = 3;
    m.timeSeries = 1;
    m.heatmap = 0;
    m.noiseTrace = 1;
    m.trackVr = 17;
    m.noiseSamplesOverride = 9;
    m.deadlineMs = 2500;
    return m;
}

SweepMsg sampleSweep()
{
    SweepMsg m;
    m.setup = {9, 8, 7};
    m.benchmarks = {"rayt", "fft", "lu_ncb"};
    m.policies = {0, 2, 5};
    m.cells = {0, 4, 8};
    m.jobs = 4;
    m.heatmap = 1;
    m.trackVr = -1;
    m.noiseSamplesOverride = -1;
    m.deadlineMs = 60000;
    return m;
}

TEST(ServeProtocol, RunRoundTrip)
{
    const RunMsg in = sampleRun();
    RunMsg out;
    ASSERT_TRUE(decodeRun(encodeRun(in), out));
    EXPECT_EQ(out.setup, in.setup);
    EXPECT_EQ(out.benchmark, in.benchmark);
    EXPECT_EQ(out.policy, in.policy);
    EXPECT_EQ(out.timeSeries, in.timeSeries);
    EXPECT_EQ(out.heatmap, in.heatmap);
    EXPECT_EQ(out.noiseTrace, in.noiseTrace);
    EXPECT_EQ(out.trackVr, in.trackVr);
    EXPECT_EQ(out.noiseSamplesOverride, in.noiseSamplesOverride);
    EXPECT_EQ(out.deadlineMs, in.deadlineMs);
}

TEST(ServeProtocol, SweepRoundTrip)
{
    const SweepMsg in = sampleSweep();
    SweepMsg out;
    ASSERT_TRUE(decodeSweep(encodeSweep(in), out));
    EXPECT_EQ(out.setup, in.setup);
    EXPECT_EQ(out.benchmarks, in.benchmarks);
    EXPECT_EQ(out.policies, in.policies);
    EXPECT_EQ(out.cells, in.cells);
    EXPECT_EQ(out.jobs, in.jobs);
    EXPECT_EQ(out.heatmap, in.heatmap);
    EXPECT_EQ(out.trackVr, in.trackVr);
    EXPECT_EQ(out.deadlineMs, in.deadlineMs);
}

TEST(ServeProtocol, CellAndDoneRoundTrip)
{
    CellMsg cell;
    cell.cell = 42;
    cell.result = {0xDE, 0xAD, 0xBE, 0xEF};
    CellMsg cellOut;
    ASSERT_TRUE(decodeCell(encodeCell(cell), cellOut));
    EXPECT_EQ(cellOut.cell, cell.cell);
    EXPECT_EQ(cellOut.result, cell.result);

    DoneMsg done;
    done.ok = 0;
    done.status = static_cast<std::uint8_t>(DoneStatus::Busy);
    done.cells = 7;
    done.error = "unknown benchmark 'nope'";
    done.retryAfterMs = 125;
    DoneMsg doneOut;
    ASSERT_TRUE(decodeDone(encodeDone(done), doneOut));
    EXPECT_EQ(doneOut.ok, done.ok);
    EXPECT_EQ(doneOut.status, done.status);
    EXPECT_EQ(doneOut.cells, done.cells);
    EXPECT_EQ(doneOut.error, done.error);
    EXPECT_EQ(doneOut.retryAfterMs, done.retryAfterMs);
}

TEST(ServeProtocol, PlaceCellFillsOnlyTheSlotItNames)
{
    SweepMsg req;
    req.benchmarks = {"rayt", "fft"};
    req.policies = {static_cast<std::uint32_t>(core::PolicyKind::AllOn),
                    static_cast<std::uint32_t>(core::PolicyKind::OracT)};
    auto cellPayload = [](std::uint64_t index, const char *benchmark,
                          core::PolicyKind policy) {
        sim::RunResult r;
        r.benchmark = benchmark;
        r.policy = policy;
        r.meanPower = 1.25;
        CellMsg m;
        m.cell = index;
        m.result = cache::encodeRunResult(r);
        return encodeCell(m);
    };

    sim::SweepResult grid = emptyGrid(req);
    ASSERT_EQ(grid.results.size(), 2u);
    ASSERT_EQ(grid.results[1].size(), 2u);
    std::uint64_t cell = 0;
    // Cell 3 is (fft, OracT): a correctly labelled reply lands there.
    ASSERT_TRUE(placeCell(
        cellPayload(3, "fft", core::PolicyKind::OracT), grid, cell));
    EXPECT_EQ(cell, 3u);
    EXPECT_EQ(grid.results[1][1].benchmark, "fft");
    EXPECT_EQ(grid.results[1][1].meanPower, 1.25);

    // A reply labelled (rayt, OracT) that claims cell 2 (fft, AllOn)
    // is mislabelled, and one past the grid is out of range: neither
    // may land anywhere.
    EXPECT_FALSE(placeCell(
        cellPayload(2, "rayt", core::PolicyKind::OracT), grid, cell));
    EXPECT_FALSE(placeCell(
        cellPayload(2, "fft", core::PolicyKind::OracT), grid, cell));
    EXPECT_FALSE(placeCell(
        cellPayload(4, "rayt", core::PolicyKind::AllOn), grid, cell));
    EXPECT_FALSE(placeCell({1, 2, 3}, grid, cell));
    EXPECT_TRUE(grid.results[1][0].benchmark.empty());
    EXPECT_TRUE(grid.results[0][1].benchmark.empty());
    EXPECT_EQ(cell, 3u);
}

TEST(ServeProtocol, DoneStatusConsistencyIsEnforced)
{
    // ok=1 must mean status==Ok: any disagreement (or an unknown
    // status id) is a malformed reply, not something to half-trust.
    DoneMsg lying;
    lying.ok = 1;
    lying.status = static_cast<std::uint8_t>(DoneStatus::Busy);
    DoneMsg out;
    EXPECT_FALSE(decodeDone(encodeDone(lying), out));

    DoneMsg unknown;
    unknown.ok = 0;
    unknown.status = 250;
    EXPECT_FALSE(decodeDone(encodeDone(unknown), out));

    DoneMsg honest;
    honest.ok = 1;
    honest.status = static_cast<std::uint8_t>(DoneStatus::Ok);
    EXPECT_TRUE(decodeDone(encodeDone(honest), out));
}

TEST(ServeProtocol, StatsReplyRoundTripIncludesStoreSnapshot)
{
    StatsReplyMsg in;
    in.uptimeMicros = 1234567;
    in.requestsRun = 1;
    in.requestsSweep = 2;
    in.requestsPing = 3;
    in.requestsStats = 4;
    in.requestsRejected = 5;
    in.cellsServed = 6;
    in.contextsBuilt = 7;
    in.contextsReused = 8;
    in.queueDepth = 9;
    in.runMicros = 10;
    in.sweepMicros = 11;
    for (std::size_t k = 0; k < in.store.kind.size(); ++k) {
        in.store.kind[k].hits = 100 + k;
        in.store.kind[k].misses = 200 + k;
        in.store.kind[k].inserts = 300 + k;
        in.store.kind[k].bytes = 400 + k;
        in.store.kind[k].evictions = 500 + k;
    }
    in.requestsBusy = 12;
    in.requestsCancelled = 13;
    in.requestsDeadline = 14;
    in.activeRequests = 1;
    in.store.evictions = 2020;
    in.store.diskHits = 1;
    in.store.diskMisses = 2;
    in.store.diskWrites = 3;
    in.store.diskRejects = 4;
    in.store.diskTmpSwept = 5;

    StatsReplyMsg out;
    ASSERT_TRUE(decodeStatsReply(encodeStatsReply(in), out));
    EXPECT_EQ(out.uptimeMicros, in.uptimeMicros);
    EXPECT_EQ(out.requestsRejected, in.requestsRejected);
    EXPECT_EQ(out.contextsBuilt, in.contextsBuilt);
    EXPECT_EQ(out.contextsReused, in.contextsReused);
    EXPECT_EQ(out.queueDepth, in.queueDepth);
    EXPECT_EQ(out.sweepMicros, in.sweepMicros);
    for (std::size_t k = 0; k < in.store.kind.size(); ++k) {
        EXPECT_EQ(out.store.kind[k].hits, in.store.kind[k].hits);
        EXPECT_EQ(out.store.kind[k].bytes, in.store.kind[k].bytes);
        EXPECT_EQ(out.store.kind[k].evictions,
                  in.store.kind[k].evictions);
    }
    EXPECT_EQ(out.requestsBusy, in.requestsBusy);
    EXPECT_EQ(out.requestsCancelled, in.requestsCancelled);
    EXPECT_EQ(out.requestsDeadline, in.requestsDeadline);
    EXPECT_EQ(out.activeRequests, in.activeRequests);
    EXPECT_EQ(out.store.evictions, in.store.evictions);
    EXPECT_EQ(out.store.diskRejects, in.store.diskRejects);
    EXPECT_EQ(out.store.diskTmpSwept, in.store.diskTmpSwept);
}

TEST(ServeProtocol, StatsReplyBytesArePinned)
{
    // Every counter, per-kind ones included, holds a distinct value,
    // so a reordered, dropped or duplicated field changes the bytes.
    StatsReplyMsg m;
    std::uint64_t v = 0x1000;
    m.uptimeMicros = ++v;
    m.requestsRun = ++v;
    m.requestsSweep = ++v;
    m.requestsPing = ++v;
    m.requestsStats = ++v;
    m.requestsRejected = ++v;
    m.cellsServed = ++v;
    m.contextsBuilt = ++v;
    m.contextsReused = ++v;
    m.queueDepth = ++v;
    m.runMicros = ++v;
    m.sweepMicros = ++v;
    m.requestsBusy = ++v;
    m.requestsCancelled = ++v;
    m.requestsDeadline = ++v;
    m.activeRequests = ++v;
    for (auto &k : m.store.kind) {
        k.hits = ++v;
        k.misses = ++v;
        k.inserts = ++v;
        k.bytes = ++v;
        k.evictions = ++v;
    }
    m.store.evictions = ++v;
    m.store.diskHits = ++v;
    m.store.diskMisses = ++v;
    m.store.diskWrites = ++v;
    m.store.diskRejects = ++v;
    m.store.diskTmpSwept = ++v;

    // Pinned wire bytes: a change here breaks every client built
    // against an older tree.
    const std::vector<std::uint8_t> wire = encodeStatsReply(m);
    EXPECT_EQ(wire.size(), 344u);
    EXPECT_EQ(bytes::fnv1a(wire.data(), wire.size()),
              0x9a5d152fc205f76cull);
}

TEST(ServeProtocol, TruncationIsRejectedAtEveryPrefix)
{
    const std::vector<std::uint8_t> runBytes =
        encodeRun(sampleRun());
    for (std::size_t cut = 0; cut < runBytes.size(); ++cut) {
        RunMsg out;
        const std::vector<std::uint8_t> prefix(
            runBytes.begin(),
            runBytes.begin() + static_cast<std::ptrdiff_t>(cut));
        EXPECT_FALSE(decodeRun(prefix, out)) << "cut=" << cut;
    }
    const std::vector<std::uint8_t> sweepBytes =
        encodeSweep(sampleSweep());
    for (std::size_t cut = 0; cut < sweepBytes.size(); ++cut) {
        SweepMsg out;
        const std::vector<std::uint8_t> prefix(
            sweepBytes.begin(),
            sweepBytes.begin() + static_cast<std::ptrdiff_t>(cut));
        EXPECT_FALSE(decodeSweep(prefix, out)) << "cut=" << cut;
    }
}

TEST(ServeProtocol, TrailingGarbageIsRejected)
{
    std::vector<std::uint8_t> bytes = encodeSweep(sampleSweep());
    bytes.push_back(0x00);
    SweepMsg out;
    EXPECT_FALSE(decodeSweep(bytes, out));

    std::vector<std::uint8_t> statsBytes =
        encodeStatsReply(StatsReplyMsg{});
    statsBytes.push_back(0xFF);
    StatsReplyMsg statsOut;
    EXPECT_FALSE(decodeStatsReply(statsBytes, statsOut));
}

TEST(ServeProtocol, AbsurdListLengthIsRejected)
{
    // Hand-craft a sweep whose benchmark count claims 2^32 entries.
    bytes::ByteWriter w;
    w.blob({1, 2, 3});
    w.u64(1ull << 32);
    const std::vector<std::uint8_t> p = w.take();
    SweepMsg out;
    EXPECT_FALSE(decodeSweep(p, out));
}

TEST(ServeProtocol, SocketPathLadder)
{
    // CLI value wins outright.
    EXPECT_EQ(resolveSocketPath("/tmp/explicit.sock"),
              "/tmp/explicit.sock");

    // Then the environment.
    ::setenv("TG_SERVE_SOCKET", "/tmp/from_env.sock", 1);
    EXPECT_EQ(resolveSocketPath(""), "/tmp/from_env.sock");
    ::unsetenv("TG_SERVE_SOCKET");

    // Then the per-user default.
    const std::string fallback = resolveSocketPath("");
    EXPECT_EQ(fallback.rfind("/tmp/tg_serve.", 0), 0u);
    EXPECT_NE(fallback.find(".sock"), std::string::npos);
}

TEST(ServeProtocol, ServeFrameTypesAreValidFrameTypes)
{
    // The serve extension registered its enumerators in the shard
    // frame registry; the parser must accept them all...
    for (auto t : {shard::FrameType::ServeRun,
                   shard::FrameType::ServeSweep,
                   shard::FrameType::ServeCell,
                   shard::FrameType::ServeDone,
                   shard::FrameType::ServeStats,
                   shard::FrameType::ServeStatsReply,
                   shard::FrameType::Ping, shard::FrameType::Pong,
                   shard::FrameType::ServeCancel})
        EXPECT_TRUE(shard::frameTypeValid(
            static_cast<std::uint32_t>(t)));
    // ...and still reject the first id past the extension.
    EXPECT_FALSE(shard::frameTypeValid(
        static_cast<std::uint32_t>(shard::FrameType::ServeCancel) +
        1));
}

} // namespace
} // namespace serve
} // namespace tg
