/**
 * @file
 * Pure unit tests of the sharded sweep's building blocks: the
 * deterministic partitioner, the length-prefixed frame layer and the
 * basic setup-blob codec. No processes are spawned here — the
 * end-to-end coordinator/endpoint determinism and crash-reassignment
 * tests live in test_shard_run.cc (which needs a custom main for
 * endpoint mode).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "common/bytes.hh"
#include "shard/partition.hh"
#include "shard/protocol.hh"
#include "shard/worker.hh"

using namespace tg;
using shard::Frame;
using shard::FrameParser;
using shard::FrameType;

// --- partitioner -----------------------------------------------------

TEST(ShardPartition, EveryCellExactlyOnce)
{
    for (std::size_t n : {std::size_t(0), std::size_t(1),
                          std::size_t(2), std::size_t(3),
                          std::size_t(7), std::size_t(12),
                          std::size_t(16), std::size_t(100),
                          std::size_t(112), std::size_t(1000)}) {
        for (int workers : {1, 2, 3, 4, 8, 16}) {
            auto shards = shard::partitionCells(n, workers);
            std::vector<int> seen(n, 0);
            for (const auto &s : shards) {
                EXPECT_FALSE(s.empty());
                for (auto c : s) {
                    ASSERT_LT(c, n);
                    ++seen[c];
                }
            }
            for (std::size_t c = 0; c < n; ++c)
                EXPECT_EQ(seen[c], 1)
                    << "cell " << c << " at n=" << n
                    << " workers=" << workers;
        }
    }
}

TEST(ShardPartition, ContiguousAndOrdered)
{
    auto shards = shard::partitionCells(100, 4);
    std::uint64_t next = 0;
    for (const auto &s : shards)
        for (auto c : s)
            EXPECT_EQ(c, next++);
    EXPECT_EQ(next, 100u);
}

TEST(ShardPartition, GuidedSizesNonIncreasing)
{
    auto shards = shard::partitionCells(112, 4);
    ASSERT_FALSE(shards.empty());
    // First shard: ceil(112 / (2*4)) = 14 cells.
    EXPECT_EQ(shards.front().size(), 14u);
    for (std::size_t i = 1; i < shards.size(); ++i)
        EXPECT_LE(shards[i].size(), shards[i - 1].size());
    // Tail decays: the guided schedule ends in single-cell shards.
    EXPECT_EQ(shards.back().size(), 1u);
}

TEST(ShardPartition, Deterministic)
{
    EXPECT_EQ(shard::partitionCells(250, 3),
              shard::partitionCells(250, 3));
}

TEST(ShardPartition, DegenerateInputsClamp)
{
    EXPECT_TRUE(shard::partitionCells(0, 4).empty());
    // workers clamp to >= 1.
    auto shards = shard::partitionCells(5, 0);
    std::size_t total = 0;
    for (const auto &s : shards)
        total += s.size();
    EXPECT_EQ(total, 5u);
    // One worker, one cell: exactly one singleton shard.
    auto one = shard::partitionCells(1, 1);
    ASSERT_EQ(one.size(), 1u);
    EXPECT_EQ(one[0], std::vector<std::uint64_t>{0});
}

// --- frame layer -----------------------------------------------------

namespace {

/** Feed a byte buffer into a parser in one go. */
FrameParser::Status
feedAll(FrameParser &p, const std::vector<std::uint8_t> &bytes,
        Frame &out)
{
    p.feed(bytes.data(), bytes.size());
    return p.next(out);
}

} // namespace

TEST(ShardProtocol, FrameRoundTrip)
{
    const std::vector<std::uint8_t> payload = {1, 2, 3, 4, 5};
    auto bytes = shard::encodeFrame(FrameType::ServeCell, payload);

    FrameParser parser;
    Frame frame;
    ASSERT_EQ(feedAll(parser, bytes, frame),
              FrameParser::Status::Frame);
    EXPECT_EQ(frame.type, FrameType::ServeCell);
    EXPECT_EQ(frame.payload, payload);
    EXPECT_EQ(parser.next(frame), FrameParser::Status::NeedMore);
}

TEST(ShardProtocol, EmptyPayloadFrame)
{
    auto bytes = shard::encodeFrame(FrameType::Ping, {});
    FrameParser parser;
    Frame frame;
    ASSERT_EQ(feedAll(parser, bytes, frame),
              FrameParser::Status::Frame);
    EXPECT_EQ(frame.type, FrameType::Ping);
    EXPECT_TRUE(frame.payload.empty());
}

TEST(ShardProtocol, ByteAtATimeReassembly)
{
    const std::vector<std::uint8_t> payload(300, 0xAB);
    auto bytes = shard::encodeFrame(FrameType::ServeDone, payload);

    FrameParser parser;
    Frame frame;
    for (std::size_t i = 0; i + 1 < bytes.size(); ++i) {
        parser.feed(&bytes[i], 1);
        ASSERT_EQ(parser.next(frame), FrameParser::Status::NeedMore)
            << "frame completed early at byte " << i;
    }
    parser.feed(&bytes.back(), 1);
    ASSERT_EQ(parser.next(frame), FrameParser::Status::Frame);
    EXPECT_EQ(frame.payload, payload);
}

TEST(ShardProtocol, BackToBackFrames)
{
    auto a = shard::encodeFrame(FrameType::Ping, {});
    auto b = shard::encodeFrame(FrameType::ServeDone, {9, 9});
    std::vector<std::uint8_t> stream = a;
    stream.insert(stream.end(), b.begin(), b.end());

    FrameParser parser;
    Frame frame;
    ASSERT_EQ(feedAll(parser, stream, frame),
              FrameParser::Status::Frame);
    EXPECT_EQ(frame.type, FrameType::Ping);
    ASSERT_EQ(parser.next(frame), FrameParser::Status::Frame);
    EXPECT_EQ(frame.type, FrameType::ServeDone);
    EXPECT_EQ(parser.next(frame), FrameParser::Status::NeedMore);
}

TEST(ShardProtocol, BadMagicIsStickyCorrupt)
{
    auto bytes = shard::encodeFrame(FrameType::Ping, {});
    bytes[0] ^= 0xFF;

    FrameParser parser;
    Frame frame;
    EXPECT_EQ(feedAll(parser, bytes, frame),
              FrameParser::Status::Corrupt);
    EXPECT_TRUE(parser.corrupt());

    // A later good frame cannot resurrect the stream.
    auto good = shard::encodeFrame(FrameType::Ping, {});
    EXPECT_EQ(feedAll(parser, good, frame),
              FrameParser::Status::Corrupt);
}

TEST(ShardProtocol, ChecksumMismatchIsCorrupt)
{
    auto bytes = shard::encodeFrame(FrameType::ServeCell,
                                    {10, 20, 30, 40});
    bytes[bytes.size() - 9] ^= 0x01; // last payload byte

    FrameParser parser;
    Frame frame;
    EXPECT_EQ(feedAll(parser, bytes, frame),
              FrameParser::Status::Corrupt);
}

TEST(ShardProtocol, UnknownFrameTypeIsCorrupt)
{
    bytes::ByteWriter w;
    w.u32(shard::kFrameMagic);
    w.u32(0xDEAD); // not a FrameType
    w.u64(0);
    auto header = w.take();

    FrameParser parser;
    Frame frame;
    EXPECT_EQ(feedAll(parser, header, frame),
              FrameParser::Status::Corrupt);
    EXPECT_FALSE(shard::frameTypeValid(0));
    EXPECT_FALSE(shard::frameTypeValid(0xDEAD));
    EXPECT_TRUE(shard::frameTypeValid(
        static_cast<std::uint32_t>(FrameType::Shutdown)));
}

TEST(ShardProtocol, RetiredFrameIdsAreCorrupt)
{
    // Ids 1-6 belonged to the retired worker protocol: a well-formed
    // frame carrying one must still kill the stream, and the pinned
    // ids must not have moved.
    for (std::uint32_t id = 1; id <= 6; ++id) {
        auto bytes =
            shard::encodeFrame(static_cast<FrameType>(id), {1, 2});
        FrameParser parser;
        Frame out;
        EXPECT_EQ(feedAll(parser, bytes, out),
                  FrameParser::Status::Corrupt)
            << "retired frame id " << id;
    }
    EXPECT_EQ(static_cast<std::uint32_t>(FrameType::Shutdown), 7u);
    EXPECT_EQ(static_cast<std::uint32_t>(FrameType::ServeRun), 8u);
    EXPECT_EQ(static_cast<std::uint32_t>(FrameType::ServeCancel), 16u);
}

TEST(ShardProtocol, AbsurdPayloadLengthIsCorrupt)
{
    bytes::ByteWriter w;
    w.u32(shard::kFrameMagic);
    w.u32(static_cast<std::uint32_t>(FrameType::ServeCell));
    w.u64(shard::kMaxFramePayload + 1);
    auto header = w.take();

    FrameParser parser;
    Frame frame;
    EXPECT_EQ(feedAll(parser, header, frame),
              FrameParser::Status::Corrupt);
}

// --- basic setup blob ------------------------------------------------

TEST(ShardProtocol, DecodersRejectTruncation)
{
    const auto p = shard::encodeBasicSetup(shard::ChipKind::Mini, 2,
                                           sim::SimConfig{});
    for (std::size_t keep = 0; keep < p.size(); ++keep) {
        std::vector<std::uint8_t> cut(p.begin(), p.begin() + keep);
        shard::ChipKind kind{};
        int arg = 0;
        sim::SimConfig cfg;
        EXPECT_FALSE(shard::decodeBasicSetup(cut, kind, arg, cfg))
            << "truncated setup of " << keep
            << " bytes decoded successfully";
    }
}

TEST(ShardProtocol, DecodersRejectTrailingGarbage)
{
    sim::SimConfig in;
    in.noiseSamples = 7;
    in.seed = 99;
    auto p = shard::encodeBasicSetup(shard::ChipKind::Mini, 2, in);

    shard::ChipKind kind{};
    int arg = 0;
    sim::SimConfig out;
    ASSERT_TRUE(shard::decodeBasicSetup(p, kind, arg, out));
    EXPECT_EQ(kind, shard::ChipKind::Mini);
    EXPECT_EQ(arg, 2);
    EXPECT_EQ(out.noiseSamples, in.noiseSamples);
    EXPECT_EQ(out.seed, in.seed);

    p.push_back(0x00);
    EXPECT_FALSE(shard::decodeBasicSetup(p, kind, arg, out));
}

TEST(ShardProtocol, SetupDecoderRefusesWhatTheSimulatorAssertsOn)
{
    auto decodes = [](shard::ChipKind k, int chip,
                      const sim::SimConfig &cfg) {
        shard::ChipKind kind{};
        int arg = 0;
        sim::SimConfig out;
        return shard::decodeBasicSetup(
            shard::encodeBasicSetup(k, chip, cfg), kind, arg, out);
    };
    const sim::SimConfig base;
    // The edges of every range still decode.
    EXPECT_TRUE(decodes(shard::ChipKind::Mini, 1, base));
    EXPECT_TRUE(decodes(shard::ChipKind::Mini, 64, base));
    EXPECT_TRUE(decodes(shard::ChipKind::Power8, 0, base));
    sim::SimConfig edge = base;
    edge.regulator = sim::RegulatorChoice::Ldo;
    edge.noiseWarmupCycles = 0;
    EXPECT_TRUE(decodes(shard::ChipKind::Mini, 1, edge));
    edge.noiseWarmupCycles = edge.noiseCyclesTotal - 1;
    EXPECT_TRUE(decodes(shard::ChipKind::Mini, 1, edge));
    // The work caps: 10x the paper's method, ~40x default profiling.
    edge = base;
    edge.noiseSamples = 0;
    EXPECT_TRUE(decodes(shard::ChipKind::Mini, 1, edge));
    edge.noiseSamples = 2000;
    edge.noiseCyclesTotal = 20000;
    edge.decisionInterval = 10e-3;
    edge.profilingEpochs = 1000;
    EXPECT_TRUE(decodes(shard::ChipKind::Mini, 1, edge));
    // The fewest profiling epochs that give the theta fit a sample.
    edge = base;
    edge.profilingEpochs = 3;
    EXPECT_TRUE(decodes(shard::ChipKind::Mini, 1, edge));

    EXPECT_FALSE(decodes(shard::ChipKind::Mini, 0, base));
    EXPECT_FALSE(decodes(shard::ChipKind::Mini, 65, base));
    EXPECT_FALSE(decodes(static_cast<shard::ChipKind>(2), 1, base));
    auto refused = [&](void (*edit)(sim::SimConfig &)) {
        sim::SimConfig cfg = base;
        edit(cfg);
        return !decodes(shard::ChipKind::Mini, 1, cfg);
    };
    EXPECT_TRUE(refused([](sim::SimConfig &c) {
        c.regulator = static_cast<sim::RegulatorChoice>(2);
    }));
    EXPECT_TRUE(refused([](sim::SimConfig &c) {
        c.decisionInterval = std::numeric_limits<double>::quiet_NaN();
    }));
    EXPECT_TRUE(refused([](sim::SimConfig &c) {
        c.decisionInterval = std::numeric_limits<double>::infinity();
    }));
    EXPECT_TRUE(refused([](sim::SimConfig &c) { c.decisionInterval = 0; }));
    EXPECT_TRUE(refused([](sim::SimConfig &c) {
        c.decisionInterval = std::nextafter(10e-3, 1.0);
    }));
    EXPECT_TRUE(refused([](sim::SimConfig &c) { c.noiseSamples = -1; }));
    EXPECT_TRUE(refused([](sim::SimConfig &c) { c.noiseSamples = 2001; }));
    EXPECT_TRUE(refused([](sim::SimConfig &c) { c.noiseCyclesTotal = 0; }));
    EXPECT_TRUE(
        refused([](sim::SimConfig &c) { c.noiseCyclesTotal = 20001; }));
    EXPECT_TRUE(
        refused([](sim::SimConfig &c) { c.profilingEpochs = 1001; }));
    EXPECT_TRUE(refused([](sim::SimConfig &c) { c.profilingEpochs = 2; }));
    EXPECT_TRUE(refused([](sim::SimConfig &c) {
        c.noiseWarmupCycles = c.noiseCyclesTotal;
    }));
    EXPECT_TRUE(
        refused([](sim::SimConfig &c) { c.noiseWarmupCycles = -1; }));
    EXPECT_TRUE(refused([](sim::SimConfig &c) {
        c.practicalDemandMargin = std::numeric_limits<double>::quiet_NaN();
    }));
    EXPECT_TRUE(
        refused([](sim::SimConfig &c) { c.practicalHeadroomVrs = -1; }));
    EXPECT_TRUE(refused([](sim::SimConfig &c) {
        c.practicalHeadroomVrs = std::numeric_limits<int>::max();
    }));

    // An i64 field outside int range is refused, not truncated: this
    // noiseCyclesTotal of 2^32 + 600 would otherwise read as 600.
    auto p = shard::encodeBasicSetup(shard::ChipKind::Mini, 1, base);
    const std::size_t cyclesAt = 4 + 4 + 8 + 4 + 8 + 8;
    ASSERT_EQ(p[cyclesAt], static_cast<std::uint8_t>(600 & 0xff));
    p[cyclesAt + 4] = 1;
    shard::ChipKind kind{};
    int arg = 0;
    sim::SimConfig out;
    EXPECT_FALSE(shard::decodeBasicSetup(p, kind, arg, out));
}

TEST(ShardProtocol, SetupBlobBytesArePinned)
{
    // The default blob, and one with every wire member off its
    // default, so a reordered, dropped or re-typed member changes the
    // bytes. A blob is the daemon's warm-context key and travels
    // between processes: a change here breaks every older client.
    const std::vector<std::uint8_t> def = shard::encodeBasicSetup(
        shard::ChipKind::Power8, 0, sim::SimConfig{});
    EXPECT_EQ(def.size(), 101u);
    EXPECT_EQ(bytes::fnv1a(def.data(), def.size()), 0xe4a5169873bb8e81ull);

    sim::SimConfig cfg;
    cfg.regulator = sim::RegulatorChoice::Ldo;
    cfg.decisionInterval = 2.5e-3;
    cfg.noiseSamples = 7;
    cfg.noiseCyclesTotal = 900;
    cfg.noiseWarmupCycles = 300;
    cfg.noiseBatchWidth = 2;
    cfg.profilingEpochs = 5;
    cfg.practicalDemandMargin = 0.25;
    cfg.practicalHeadroomVrs = 3;
    cfg.seed = 0x0123456789abcdefull;
    cfg.cacheDir = "/var/cache/tg";
    cfg.memoizeResults = false;
    const std::vector<std::uint8_t> off =
        shard::encodeBasicSetup(shard::ChipKind::Mini, 9, cfg);
    EXPECT_EQ(off.size(), 114u);
    EXPECT_EQ(bytes::fnv1a(off.data(), off.size()), 0x4a2e17dcf34225aeull);

    shard::ChipKind kind{};
    int arg = 0;
    sim::SimConfig back;
    ASSERT_TRUE(shard::decodeBasicSetup(off, kind, arg, back));
    EXPECT_EQ(shard::encodeBasicSetup(kind, arg, back), off);
}
