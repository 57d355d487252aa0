/**
 * @file
 * Pure unit tests of the wire building blocks: the length-prefixed
 * frame layer and the basic setup-blob codec. The served end-to-end
 * paths are tested in test_serve_run.cc.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <vector>

#include "common/bytes.hh"
#include "shard/protocol.hh"
#include "shard/worker.hh"

using namespace tg;
using shard::Frame;
using shard::FrameParser;
using shard::FrameType;

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
    EXPECT_EQ(def.size(), 93u);
    EXPECT_EQ(bytes::fnv1a(def.data(), def.size()), 0x76cb063703c3ea16ull);

    sim::SimConfig cfg;
    cfg.regulator = sim::RegulatorChoice::Ldo;
    cfg.decisionInterval = 2.5e-3;
    cfg.noiseSamples = 7;
    cfg.noiseCyclesTotal = 900;
    cfg.noiseWarmupCycles = 300;
    cfg.profilingEpochs = 5;
    cfg.practicalDemandMargin = 0.25;
    cfg.practicalHeadroomVrs = 3;
    cfg.seed = 0x0123456789abcdefull;
    cfg.cacheDir = "/var/cache/tg";
    cfg.memoizeResults = false;
    const std::vector<std::uint8_t> off =
        shard::encodeBasicSetup(shard::ChipKind::Mini, 9, cfg);
    EXPECT_EQ(off.size(), 106u);
    EXPECT_EQ(bytes::fnv1a(off.data(), off.size()), 0x1732b37a5c6d4dd5ull);

    shard::ChipKind kind{};
    int arg = 0;
    sim::SimConfig back;
    ASSERT_TRUE(shard::decodeBasicSetup(off, kind, arg, back));
    EXPECT_EQ(shard::encodeBasicSetup(kind, arg, back), off);
}

TEST(ShardProtocol, SetupBlobOfAnOlderVersionIsRefused)
{
    // A "TGB1" blob carried a lane-width i64 after noiseWarmupCycles.
    // Read with today's member list it would shift every later member
    // and still parse (this one as profilingEpochs 8, headroom 0,
    // seed 1 and an 8-byte cacheDir of NULs), so the version alone
    // must refuse it.
    sim::SimConfig cfg;
    cfg.practicalDemandMargin = 0.0;
    cfg.seed = 8;
    std::vector<std::uint8_t> blob =
        shard::encodeBasicSetup(shard::ChipKind::Mini, 1, cfg);
    const std::size_t widthAt = 4 + 4 + 8 + 4 + 8 + 8 + 8 + 8;
    ASSERT_LT(widthAt, blob.size());
    const std::uint8_t width[8] = {8, 0, 0, 0, 0, 0, 0, 0};
    blob.insert(blob.begin() + static_cast<std::ptrdiff_t>(widthAt),
                std::begin(width), std::end(width));
    const std::uint8_t tgb1[4] = {'T', 'G', 'B', '1'};
    std::copy(std::begin(tgb1), std::end(tgb1), blob.begin());

    shard::ChipKind kind{};
    int arg = 0;
    sim::SimConfig back;
    EXPECT_FALSE(shard::decodeBasicSetup(blob, kind, arg, back));
}
