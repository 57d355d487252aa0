#include "common/bytes.hh"

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
