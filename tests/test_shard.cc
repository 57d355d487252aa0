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

TEST(ShardPartition, MinCellsFloor)
{
    auto shards = shard::partitionCells(100, 8, 5);
    for (std::size_t i = 0; i + 1 < shards.size(); ++i)
        EXPECT_GE(shards[i].size(), 5u);
    // Only the final remnant may dip below the floor.
    EXPECT_GE(shards.back().size(), 1u);
}

TEST(ShardPartition, Deterministic)
{
    EXPECT_EQ(shard::partitionCells(250, 3),
              shard::partitionCells(250, 3));
    EXPECT_EQ(shard::partitionCells(250, 3, 4),
              shard::partitionCells(250, 3, 4));
}

TEST(ShardPartition, DegenerateInputsClamp)
{
    EXPECT_TRUE(shard::partitionCells(0, 4).empty());
    // workers and min_cells clamp to >= 1.
    auto shards = shard::partitionCells(5, 0, 0);
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
