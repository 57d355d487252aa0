#include "shard/protocol.hh"

#include <cerrno>
#include <cstring>

#ifdef __unix__
#include <unistd.h>
#endif

#include "common/io.hh"

namespace tg {
namespace shard {

namespace {

constexpr std::size_t kHeaderBytes = 4 + 4 + 8;
constexpr std::size_t kChecksumBytes = 8;

} // namespace

bool frameTypeValid(std::uint32_t t)
{
    return t >= static_cast<std::uint32_t>(FrameType::Shutdown) &&
           t <= static_cast<std::uint32_t>(FrameType::ServeCancel);
}

std::vector<std::uint8_t>
encodeFrame(FrameType type, const std::vector<std::uint8_t> &payload)
{
    bytes::ByteWriter w;
    w.u32(kFrameMagic);
    w.u32(static_cast<std::uint32_t>(type));
    w.blob(payload);
    w.u64(bytes::fnv1a(w.bytes().data(), w.bytes().size()));
    return w.take();
}

void FrameParser::feed(const std::uint8_t *data, std::size_t size)
{
    if (corruptFlag)
        return;
    buf.insert(buf.end(), data, data + size);
}

FrameParser::Status FrameParser::next(Frame &out)
{
    if (corruptFlag)
        return Status::Corrupt;
    const std::size_t avail = buf.size() - start;
    if (avail < kHeaderBytes)
        return Status::NeedMore;

    const std::uint8_t *h = buf.data() + start;
    bytes::ByteReader header(h, kHeaderBytes);
    const std::uint32_t magic = header.u32();
    const std::uint32_t type = header.u32();
    const std::uint64_t len = header.u64();
    if (magic != kFrameMagic || !frameTypeValid(type) ||
        len > kMaxFramePayload) {
        corruptFlag = true;
        return Status::Corrupt;
    }
    const std::size_t total =
        kHeaderBytes + static_cast<std::size_t>(len) + kChecksumBytes;
    if (avail < total)
        return Status::NeedMore;

    const std::uint64_t want =
        bytes::ByteReader(h + kHeaderBytes + static_cast<std::size_t>(len),
                          kChecksumBytes)
            .u64();
    if (bytes::fnv1a(h, kHeaderBytes + static_cast<std::size_t>(len)) !=
        want) {
        corruptFlag = true;
        return Status::Corrupt;
    }

    out.type = static_cast<FrameType>(type);
    out.payload.assign(h + kHeaderBytes,
                       h + kHeaderBytes + static_cast<std::size_t>(len));
    start += total;
    // Compact once the consumed prefix dominates, so a long stream
    // does not grow the buffer without bound.
    if (start > 4096 && start * 2 > buf.size()) {
        buf.erase(buf.begin(),
                  buf.begin() + static_cast<std::ptrdiff_t>(start));
        start = 0;
    }
    return Status::Frame;
}

// --- connection plumbing ----------------------------------------------

bool writeFrameToFd(int fd, FrameType type,
                    const std::vector<std::uint8_t> &payload)
{
    const std::vector<std::uint8_t> frame = encodeFrame(type, payload);
    return io::writeAll(fd, frame.data(), frame.size());
}

#ifdef __unix__

PumpStatus pumpFrames(int fd, FrameParser &parser,
                      const std::function<bool(const Frame &)> &handle)
{
    std::uint8_t chunk[1 << 16];
    const long n = io::chaosRead(fd, chunk, sizeof chunk);
    if (n < 0) {
        if (errno == EINTR || errno == EAGAIN ||
            errno == EWOULDBLOCK)
            return PumpStatus::Ok;
        return PumpStatus::Error;
    }
    if (n == 0)
        return PumpStatus::Eof;
    parser.feed(chunk, static_cast<std::size_t>(n));

    Frame frame;
    FrameParser::Status st;
    while ((st = parser.next(frame)) == FrameParser::Status::Frame)
        if (!handle(frame))
            return PumpStatus::Rejected;
    if (st == FrameParser::Status::Corrupt)
        return PumpStatus::Corrupt;
    return PumpStatus::Ok;
}

#else // !__unix__

PumpStatus pumpFrames(int, FrameParser &,
                      const std::function<bool(const Frame &)> &)
{
    return PumpStatus::Error;
}

#endif // __unix__

} // namespace shard
} // namespace tg
