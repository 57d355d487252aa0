/**
 * @file
 * Edge cases of the common/bytes.hh codec primitives: zero-length
 * payloads, the maximum-length rejection boundary, and ByteReader's
 * sticky-fail contract after a short read. The round-trip happy path
 * is exercised constantly by the cache and protocol suites; this
 * file pins the failure-mode behaviour those layers rely on.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "common/bytes.hh"
#include "common/fields.hh"

namespace tg {
namespace bytes {
namespace {

TEST(Bytes, ZeroLengthStringRoundTrips)
{
    ByteWriter w;
    w.str("");
    w.u32(0xABCDu); // trailing field proves the cursor is right
    const std::vector<std::uint8_t> buf = w.take();
    EXPECT_EQ(buf.size(), 8u + 4u); // length prefix + no payload

    ByteReader r(buf.data(), buf.size());
    EXPECT_EQ(r.str(), "");
    EXPECT_EQ(r.u32(), 0xABCDu);
    EXPECT_TRUE(r.exhausted());
}

TEST(Bytes, ZeroLengthBlobAndVectorsRoundTrip)
{
    ByteWriter w;
    w.blob({});
    fields::put(w, std::vector<double>{});
    fields::put(w, std::vector<int>{});
    const std::vector<std::uint8_t> buf = w.take();

    ByteReader r(buf.data(), buf.size());
    std::vector<std::uint8_t> blob{1, 2, 3};
    EXPECT_TRUE(r.blob(blob));
    EXPECT_TRUE(blob.empty()); // previous contents replaced
    std::vector<double> dv{1.0};
    EXPECT_TRUE(fields::get(r, dv));
    EXPECT_TRUE(dv.empty());
    std::vector<int> iv{7};
    EXPECT_TRUE(fields::get(r, iv));
    EXPECT_TRUE(iv.empty());
    EXPECT_TRUE(r.exhausted());
}

TEST(Bytes, EmptyBufferReaderIsExhaustedButOk)
{
    ByteReader r(nullptr, 0);
    EXPECT_TRUE(r.ok());
    EXPECT_TRUE(r.exhausted());
    // First read past the end flips to failed.
    EXPECT_EQ(r.u8(), 0u);
    EXPECT_FALSE(r.ok());
    EXPECT_FALSE(r.exhausted()); // exhausted() requires ok()
}

/** A buffer holding only a length prefix claiming `len` elements. */
std::vector<std::uint8_t> lengthPrefixOnly(std::uint64_t len)
{
    ByteWriter w;
    w.u64(len);
    return w.take();
}

TEST(Bytes, StringAtMaxDecodedLenBoundaryIsRejected)
{
    // One past the cap must fail *before* any allocation attempt —
    // the length word alone decides.
    const std::vector<std::uint8_t> over =
        lengthPrefixOnly(kMaxDecodedLen + 1);
    ByteReader r(over.data(), over.size());
    (void)r.str();
    EXPECT_FALSE(r.ok());

    // Exactly the cap passes the length check and then fails the
    // bounds check (no payload bytes follow), never the cap check.
    const std::vector<std::uint8_t> at =
        lengthPrefixOnly(kMaxDecodedLen);
    ByteReader r2(at.data(), at.size());
    (void)r2.str();
    EXPECT_FALSE(r2.ok()); // short read, not cap rejection
}

TEST(Bytes, BlobOverMaxDecodedLenIsRejected)
{
    const std::vector<std::uint8_t> over =
        lengthPrefixOnly(kMaxDecodedLen + 1);
    ByteReader r(over.data(), over.size());
    std::vector<std::uint8_t> out;
    EXPECT_FALSE(r.blob(out));
    EXPECT_FALSE(r.ok());
}

TEST(Bytes, VectorLengthOverflowCannotPassBoundsCheck)
{
    // A huge element count whose byte size would overflow 64 bits
    // must still be rejected: the cap check fires before the
    // (len * 8) arithmetic could wrap.
    const std::vector<std::uint8_t> huge =
        lengthPrefixOnly(~0ull / 2);
    ByteReader r(huge.data(), huge.size());
    std::vector<double> out;
    EXPECT_FALSE(fields::get(r, out));
    EXPECT_FALSE(r.ok());
}

TEST(Bytes, ShortReadIsSticky)
{
    ByteWriter w;
    w.u32(7);
    const std::vector<std::uint8_t> buf = w.take();

    ByteReader r(buf.data(), buf.size());
    EXPECT_EQ(r.u32(), 7u);
    // The u64 read needs 8 bytes; none remain.
    EXPECT_EQ(r.u64(), 0u);
    EXPECT_FALSE(r.ok());

    // Sticky: every subsequent read fails and returns the zero
    // value, even ones that would fit a fresh reader.
    EXPECT_EQ(r.u8(), 0u);
    EXPECT_EQ(r.u32(), 0u);
    EXPECT_EQ(r.f64(), 0.0);
    EXPECT_EQ(r.str(), "");
    std::vector<std::uint8_t> blob;
    EXPECT_FALSE(r.blob(blob));
    EXPECT_FALSE(r.ok());
    EXPECT_FALSE(r.exhausted());
}

TEST(Bytes, StickyFailSurvivesAvailableData)
{
    // Fail mid-buffer (oversized string length), then confirm the
    // remaining valid bytes are unreachable: a decoder must never
    // resync inside a message it has already rejected.
    ByteWriter w;
    w.u64(kMaxDecodedLen + 1); // poisoned string length
    w.u32(42);                 // perfectly readable otherwise
    const std::vector<std::uint8_t> buf = w.take();

    ByteReader r(buf.data(), buf.size());
    (void)r.str();
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.u32(), 0u); // not 42: reader stays failed
}

TEST(Bytes, F64BitPatternRoundTrip)
{
    // The codec carries doubles as raw bit patterns; -0.0 and NaN
    // payload bits must survive exactly.
    ByteWriter w;
    w.f64(-0.0);
    const double nan = std::nan("0x5bad");
    w.f64(nan);
    const std::vector<std::uint8_t> buf = w.take();

    ByteReader r(buf.data(), buf.size());
    const double negzero = r.f64();
    std::uint64_t bits = 0;
    std::memcpy(&bits, &negzero, sizeof bits);
    EXPECT_EQ(bits, 0x8000000000000000ull);
    const double back = r.f64();
    std::uint64_t nanBitsIn = 0, nanBitsOut = 0;
    std::memcpy(&nanBitsIn, &nan, sizeof nanBitsIn);
    std::memcpy(&nanBitsOut, &back, sizeof nanBitsOut);
    EXPECT_EQ(nanBitsIn, nanBitsOut);
    EXPECT_TRUE(r.exhausted());
}

} // namespace
} // namespace bytes
} // namespace tg
