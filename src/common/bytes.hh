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

#include <bit>
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

/** Append-only little-endian byte sink. The fixed-width writers are
 *  inline so the element loops of the field-list codecs stay tight. */
class ByteWriter
{
  public:
    void u8(std::uint8_t v) { buf.push_back(v); }
    void u32(std::uint32_t v) { le(v); }
    void u64(std::uint64_t v) { le(v); }
    void i64(long long v) { u64(static_cast<std::uint64_t>(v)); }
    void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
    void str(const std::string &s);
    void blob(const std::vector<std::uint8_t> &v);

    /** Allocate room for `n` bytes up front (see ByteCounter). */
    void reserve(std::size_t n) { buf.reserve(n); }

    const std::vector<std::uint8_t> &bytes() const { return buf; }
    std::vector<std::uint8_t> take() { return std::move(buf); }

  private:
    /** Append v least significant byte first, storing through one
     *  pointer rather than re-reading the vector's end per byte. */
    template <class T>
    void le(T v)
    {
        const std::size_t at = buf.size();
        buf.resize(at + sizeof v);
        std::uint8_t *dst = buf.data() + at;
        for (std::size_t i = 0; i < sizeof v; ++i)
            dst[i] = static_cast<std::uint8_t>(v >> (8 * i));
    }

    std::vector<std::uint8_t> buf;
};

/** A ByteWriter that only counts: the size of what the same calls
 *  would append, so an encoder can reserve its buffer once. */
struct ByteCounter
{
    std::size_t size = 0;

    void u8(std::uint8_t) { size += 1; }
    void u32(std::uint32_t) { size += 4; }
    void u64(std::uint64_t) { size += 8; }
    void i64(long long) { size += 8; }
    void f64(double) { size += 8; }
    void str(const std::string &s) { size += 8 + s.size(); }
    void blob(const std::vector<std::uint8_t> &v) { size += 8 + v.size(); }
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

    std::uint8_t u8() { return le<std::uint8_t>(); }
    std::uint32_t u32() { return le<std::uint32_t>(); }
    std::uint64_t u64() { return le<std::uint64_t>(); }
    long long i64() { return static_cast<long long>(u64()); }
    double f64() { return std::bit_cast<double>(u64()); }
    std::string str();
    bool blob(std::vector<std::uint8_t> &out);

    bool ok() const { return !failed; }
    /** True when every byte was consumed (trailing garbage check). */
    bool exhausted() const { return ok() && pos == n; }
    /** Bytes not yet consumed. */
    std::size_t left() const { return n - pos; }
    /** Refuse the input: the reader fails as on a short read. */
    void fail() { failed = true; }

  private:
    /** The next sizeof(T) bytes as a little-endian T; 0 past the end. */
    template <class T>
    T le()
    {
        const std::uint8_t *q = nullptr;
        if (!take(sizeof(T), &q))
            return 0;
        T v = 0;
        for (std::size_t i = 0; i < sizeof(T); ++i)
            v |= static_cast<T>(q[i]) << (8 * i);
        return v;
    }

    bool take(std::size_t count, const std::uint8_t **out)
    {
        if (failed || count > n - pos) {
            failed = true;
            return false;
        }
        *out = p + pos;
        pos += count;
        return true;
    }

    const std::uint8_t *p;
    std::size_t n;
    std::size_t pos = 0;
    bool failed = false;
};

} // namespace bytes
} // namespace tg

#endif // TG_COMMON_BYTES_HH
