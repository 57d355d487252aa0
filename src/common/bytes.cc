#include "common/bytes.hh"

#include <cstring>

namespace tg {
namespace bytes {

std::uint64_t fnv1a(const std::uint8_t *data, std::size_t size)
{
    std::uint64_t h = 1469598103934665603ull;
    for (std::size_t i = 0; i < size; ++i) {
        h ^= data[i];
        h *= 1099511628211ull;
    }
    return h;
}

void ByteWriter::u32(std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        buf.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void ByteWriter::u64(std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        buf.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void ByteWriter::f64(double v)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
}

void ByteWriter::str(const std::string &s)
{
    u64(s.size());
    buf.insert(buf.end(), s.begin(), s.end());
}

void ByteWriter::blob(const std::vector<std::uint8_t> &v)
{
    u64(v.size());
    buf.insert(buf.end(), v.begin(), v.end());
}

bool ByteReader::take(std::size_t count, const std::uint8_t **out)
{
    if (failed || count > n - pos) {
        failed = true;
        return false;
    }
    *out = p + pos;
    pos += count;
    return true;
}

std::uint8_t ByteReader::u8()
{
    const std::uint8_t *q = nullptr;
    return take(1, &q) ? *q : 0;
}

std::uint32_t ByteReader::u32()
{
    const std::uint8_t *q = nullptr;
    if (!take(4, &q))
        return 0;
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<std::uint32_t>(q[i]) << (8 * i);
    return v;
}

std::uint64_t ByteReader::u64()
{
    const std::uint8_t *q = nullptr;
    if (!take(8, &q))
        return 0;
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(q[i]) << (8 * i);
    return v;
}

double ByteReader::f64()
{
    const std::uint64_t bits = u64();
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof v);
    return v;
}

std::string ByteReader::str()
{
    const std::uint64_t len = u64();
    if (len > kMaxDecodedLen) {
        failed = true;
        return {};
    }
    const std::uint8_t *q = nullptr;
    if (!take(static_cast<std::size_t>(len), &q))
        return {};
    return std::string(reinterpret_cast<const char *>(q),
                       static_cast<std::size_t>(len));
}

bool ByteReader::blob(std::vector<std::uint8_t> &out)
{
    const std::uint64_t len = u64();
    if (failed || len > kMaxDecodedLen) {
        failed = true;
        return false;
    }
    const std::uint8_t *q = nullptr;
    if (!take(static_cast<std::size_t>(len), &q))
        return false;
    out.assign(q, q + static_cast<std::size_t>(len));
    return ok();
}

} // namespace bytes
} // namespace tg
