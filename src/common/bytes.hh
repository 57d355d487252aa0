/**
 * @file
 * Little-endian byte codec primitives shared by every binary format
 * in the tree (the artifact cache's disk tier, the TGS1 frame
 * protocol).
 *
 * The encodings are bit-exact: doubles travel as their raw 64-bit
 * patterns, never through text formatting, so a decoded value stands
 * in for the original down to the last bit. Readers are
 * bounds-checked with a sticky failure flag — truncated or malformed
 * input decodes to `ok() == false`, never to UB — and expose an
 * exhausted() check so callers can reject trailing garbage.
 */

#ifndef TG_COMMON_BYTES_HH
#define TG_COMMON_BYTES_HH

#include <cstdint>
#include <string>
#include <vector>

namespace tg {
namespace bytes {

/**
 * Sanity cap on decoded string/vector lengths (the largest real
 * series is the per-frame data of a full run, well under a million
 * entries). A length field above this decodes to failure even when
 * the buffer could, in principle, satisfy it — a 2^60-element vector
 * in a header is corruption, not data.
 */
constexpr std::uint64_t kMaxDecodedLen = 1ull << 28;

/** FNV-1a 64-bit hash (checksums of framed/persisted payloads). */
std::uint64_t fnv1a(const std::uint8_t *data, std::size_t size);

/** Append-only little-endian byte sink. */
class ByteWriter
{
  public:
    void u8(std::uint8_t v) { buf.push_back(v); }
    void u32(std::uint32_t v);
    void u64(std::uint64_t v);
    void i64(long long v) { u64(static_cast<std::uint64_t>(v)); }
    void f64(double v);
    void str(const std::string &s);
    void f64vec(const std::vector<double> &v);
    void i32vec(const std::vector<int> &v);
    void blob(const std::vector<std::uint8_t> &v);

    const std::vector<std::uint8_t> &bytes() const { return buf; }
    std::vector<std::uint8_t> take() { return std::move(buf); }

  private:
    std::vector<std::uint8_t> buf;
};

/**
 * Bounds-checked reader over a byte span. Every accessor sets the
 * sticky failure flag instead of reading past the end, so a
 * truncated payload decodes to `ok() == false`, never to UB.
 */
class ByteReader
{
  public:
    ByteReader(const std::uint8_t *data, std::size_t size)
        : p(data), n(size)
    {
    }

    std::uint8_t u8();
    std::uint32_t u32();
    std::uint64_t u64();
    long long i64() { return static_cast<long long>(u64()); }
    double f64();
    std::string str();
    bool f64vec(std::vector<double> &out);
    bool i32vec(std::vector<int> &out);
    bool blob(std::vector<std::uint8_t> &out);

    bool ok() const { return !failed; }
    /** True when every byte was consumed (trailing garbage check). */
    bool exhausted() const { return ok() && pos == n; }

  private:
    bool take(std::size_t count, const std::uint8_t **out);

    const std::uint8_t *p;
    std::size_t n;
    std::size_t pos = 0;
    bool failed = false;
};

} // namespace bytes
} // namespace tg

#endif // TG_COMMON_BYTES_HH
