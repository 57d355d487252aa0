/**
 * @file
 * Tests of the field-list mechanism (common/fields.hh): the aggregate
 * member counter behind every list's coverage check, one round trip
 * and one refusal per kind of the put/get wire rule, the list walkers
 * and the record comparator built on them.
 */

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/bytes.hh"
#include "common/fields.hh"
#include "run_fixtures.hh"

namespace tg {
namespace fields {
namespace {

enum class Colour
{
    Red,
    Green,
    Blue,
};

struct Inner
{
    int a = 1;
    double b = 2.0;
};

struct Scalars
{
    bool flag = false;
    std::uint8_t byte = 0;
    Colour colour = Colour::Red;
    std::uint32_t u32 = 0;
    std::uint64_t u64 = 0;
    int i = 0;
    long l = 0;
    double d = 0.0;
};

struct Containers
{
    std::string text;
    std::vector<double> reals;
    std::vector<int> ints;
    std::vector<std::uint8_t> blob;
    std::vector<std::string> names;
};

struct Nested
{
    Inner inner;
    std::string tag = "x";
};

struct Bare
{
    int x;
    Colour c;
};

// The counter sees every kind of member the lists use: each listed
// record's coverage check rests on these counts.
static_assert(memberCount<Scalars>() == 8);
static_assert(memberCount<Containers>() == 5);
static_assert(memberCount<Nested>() == 2);
static_assert(memberCount<Inner>() == 2);
static_assert(memberCount<Bare>() == 2);
static_assert(memberCount<sim::RunResult>() == 28);
static_assert(memberCount<sim::ResilienceStats>() == 13);

constexpr auto kScalarsFields = std::tuple{
    field("flag", &Scalars::flag),
    field("byte", &Scalars::byte),
    field("colour", &Scalars::colour, Colour::Red, Colour::Green),
    field("u32", &Scalars::u32),
    field("u64", &Scalars::u64),
    field("i", &Scalars::i),
    field("l", &Scalars::l),
    field<0>("d", &Scalars::d),
};
static_assert(covers<Scalars>(kScalarsFields));

/** Bytes of one value under the wire rule, which a ByteCounter
 *  walking the same value must count exactly. */
template <class T>
std::vector<std::uint8_t> wire(const T &v)
{
    bytes::ByteWriter w;
    put(w, v);
    bytes::ByteCounter n;
    put(n, v);
    EXPECT_EQ(n.size, w.bytes().size());
    return w.take();
}

/** Decode `bytes` into `out` with [lo, hi]; true when it decodes and
 *  leaves no byte behind. */
template <class T>
bool read(const std::vector<std::uint8_t> &bytes, T &out,
          Bound<T> lo = lowest<T>, Bound<T> hi = highest<T>)
{
    bytes::ByteReader r(bytes.data(), bytes.size());
    return get(r, out, lo, hi) && r.exhausted();
}

TEST(Fields, ScalarsTakeTheirWireWidths)
{
    EXPECT_EQ(wire(true).size(), 1u);
    EXPECT_EQ(wire(std::uint8_t{7}).size(), 1u);
    EXPECT_EQ(wire(Colour::Blue).size(), 4u);
    EXPECT_EQ(wire(std::uint32_t{7}).size(), 4u);
    EXPECT_EQ(wire(std::uint64_t{7}).size(), 8u);
    EXPECT_EQ(wire(7).size(), 8u);
    EXPECT_EQ(wire(7L).size(), 8u);
    EXPECT_EQ(wire(0.5).size(), 8u);
    // A negative int travels sign-extended, as the i64 it reads back.
    EXPECT_EQ(wire(-2), wire(std::uint64_t(-2)));
}

TEST(Fields, EveryScalarKindRoundTrips)
{
    bool flag = false;
    EXPECT_TRUE(read(wire(true), flag));
    EXPECT_TRUE(flag);
    std::uint8_t byte = 0;
    EXPECT_TRUE(read(wire(std::uint8_t{200}), byte));
    EXPECT_EQ(byte, 200);
    Colour c = Colour::Red;
    EXPECT_TRUE(read(wire(Colour::Blue), c, Colour::Red, Colour::Blue));
    EXPECT_EQ(c, Colour::Blue);
    std::uint32_t u32 = 0;
    EXPECT_TRUE(read(wire(std::uint32_t{0xdeadbeef}), u32));
    EXPECT_EQ(u32, 0xdeadbeefu);
    std::uint64_t u64 = 0;
    EXPECT_TRUE(read(wire(~std::uint64_t{0}), u64));
    EXPECT_EQ(u64, ~std::uint64_t{0});
    int i = 0;
    EXPECT_TRUE(read(wire(std::numeric_limits<int>::min()), i));
    EXPECT_EQ(i, std::numeric_limits<int>::min());
    long l = 0;
    EXPECT_TRUE(read(wire(-5L), l));
    EXPECT_EQ(l, -5L);
    // The default range admits every double, NaN payload included.
    const double nan = std::nan("0x5bad");
    double d = 0.0;
    EXPECT_TRUE(read(wire(nan), d));
    EXPECT_EQ(wire(d), wire(nan));
    EXPECT_TRUE(read(wire(-0.0), d));
    EXPECT_TRUE(std::signbit(d));
}

TEST(Fields, OutOfRangeScalarsFailTheReader)
{
    // An i64 outside int range is refused, not truncated.
    int i = 0;
    EXPECT_FALSE(read(wire(std::int64_t{1} << 32), i));
    EXPECT_FALSE(read(wire(std::int64_t{std::numeric_limits<int>::min()} - 1),
                      i));
    // A value outside an entry's own range.
    EXPECT_FALSE(read(wire(5), i, 0, 4));
    EXPECT_TRUE(read(wire(4), i, 0, 4));
    // An enum above hi.
    Colour c = Colour::Red;
    EXPECT_FALSE(read(wire(Colour::Blue), c, Colour::Red, Colour::Green));
    // A NaN, and an infinity, against a bounded double.
    double d = 0.0;
    EXPECT_FALSE(read(wire(std::nan("")), d, 0.0, 1.0));
    EXPECT_FALSE(read(wire(std::numeric_limits<double>::infinity()), d,
                      std::numeric_limits<double>::lowest(),
                      std::numeric_limits<double>::max()));
    EXPECT_TRUE(read(wire(1.0), d, 0.0, 1.0));
    // Unsigned kinds honour their ranges too.
    std::uint32_t u = 0;
    EXPECT_FALSE(read(wire(std::uint32_t{9}), u, 0, 8));

    // A refusal is sticky: nothing after it reads.
    bytes::ByteWriter w;
    w.i64(std::int64_t{1} << 40);
    w.u32(42);
    const std::vector<std::uint8_t> p = w.take();
    bytes::ByteReader r(p.data(), p.size());
    EXPECT_FALSE(get(r, i));
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.u32(), 0u);
}

TEST(Fields, ContainersRoundTrip)
{
    Containers in;
    in.text = "thermogater";
    in.reals = {1.5, -0.0, 1e-300};
    in.ints = {-1, 0, std::numeric_limits<int>::max()};
    in.blob = {0, 1, 254, 255};
    in.names = {"fft", "", "lu_ncb"};
    Containers out;
    out.reals = {9.0}; // previous contents are replaced
    EXPECT_TRUE(read(wire(in.text), out.text));
    EXPECT_TRUE(read(wire(in.reals), out.reals));
    EXPECT_TRUE(read(wire(in.ints), out.ints));
    EXPECT_TRUE(read(wire(in.blob), out.blob));
    EXPECT_TRUE(read(wire(in.names), out.names));
    EXPECT_EQ(out.text, in.text);
    EXPECT_EQ(wire(out.reals), wire(in.reals));
    EXPECT_EQ(out.ints, in.ints);
    EXPECT_EQ(out.blob, in.blob);
    EXPECT_EQ(out.names, in.names);
    // A byte vector is its count then its bytes, as ByteWriter::blob.
    bytes::ByteWriter w;
    w.blob(in.blob);
    EXPECT_EQ(wire(in.blob), w.bytes());

    // A std::array travels as a vector of its size, and reads back
    // only when the count is that size.
    const std::array<int, 3> three = {7, -8, 9};
    EXPECT_EQ(wire(three), wire(std::vector<int>{7, -8, 9}));
    std::array<int, 3> arr{};
    EXPECT_TRUE(read(wire(three), arr));
    EXPECT_EQ(arr, three);
    EXPECT_FALSE(read(wire(std::vector<int>{7, -8}), arr));
    EXPECT_FALSE(read(wire(std::vector<int>{7, -8, 9, 10}), arr));
}

TEST(Fields, CountAboveTheBytesLeftFailsBeforeAllocating)
{
    // Each list claims 2^24 elements with no bytes behind the count.
    for (int kind = 0; kind < 4; ++kind) {
        bytes::ByteWriter w;
        w.u64(1ull << 24);
        const std::vector<std::uint8_t> p = w.take();
        bytes::ByteReader r(p.data(), p.size());
        Containers out;
        bool ok = true;
        switch (kind) {
        case 0:
            ok = get(r, out.reals);
            EXPECT_EQ(out.reals.capacity(), 0u);
            break;
        case 1:
            ok = get(r, out.names);
            EXPECT_EQ(out.names.capacity(), 0u);
            break;
        case 2:
            ok = get(r, out.blob);
            EXPECT_EQ(out.blob.capacity(), 0u);
            break;
        default:
            ok = get(r, out.text);
            EXPECT_TRUE(out.text.empty());
        }
        EXPECT_FALSE(ok) << "kind " << kind;
        EXPECT_FALSE(r.ok()) << "kind " << kind;
    }
    // A count inside the bytes left but outside the entry's range.
    std::vector<int> ints;
    EXPECT_FALSE(read(wire(std::vector<int>{1, 2, 3}), ints, 0, 2));
    EXPECT_TRUE(read(wire(std::vector<int>{1, 2}), ints, 0, 2));
    // A string's count honours its range as well.
    std::string s;
    EXPECT_FALSE(read(wire(std::string("abc")), s, 0, 2));
}

TEST(Fields, WalkersCarryOnlyWireMembersInListOrder)
{
    Scalars in;
    in.flag = true;
    in.byte = 3;
    in.colour = Colour::Green;
    in.u32 = 4;
    in.u64 = 5;
    in.i = -6;
    in.l = 7;
    in.d = 8.5; // not a Wire entry: stays behind
    bytes::ByteWriter w;
    putAll(w, in, kScalarsFields);
    EXPECT_EQ(w.bytes().size(), 1u + 1 + 4 + 4 + 8 + 8 + 8);

    Scalars out;
    bytes::ByteReader r(w.bytes().data(), w.bytes().size());
    EXPECT_TRUE(getAll(r, out, kScalarsFields));
    EXPECT_TRUE(r.exhausted());
    EXPECT_TRUE(out.flag);
    EXPECT_EQ(out.byte, 3);
    EXPECT_EQ(out.colour, Colour::Green);
    EXPECT_EQ(out.u32, 4u);
    EXPECT_EQ(out.u64, 5u);
    EXPECT_EQ(out.i, -6);
    EXPECT_EQ(out.l, 7);
    EXPECT_EQ(out.d, 0.0);

    // The entry's range is applied: Blue is past the list's Green.
    in.colour = Colour::Blue;
    std::vector<std::uint8_t> bad = encode(in, kScalarsFields);
    EXPECT_FALSE(decode(bad, out, kScalarsFields));
    // decode() refuses a trailing byte; encode() round-trips.
    in.colour = Colour::Red;
    std::vector<std::uint8_t> good = encode(in, kScalarsFields);
    EXPECT_TRUE(decode(good, out, kScalarsFields));
    good.push_back(0);
    EXPECT_FALSE(decode(good, out, kScalarsFields));
}

TEST(Fields, FirstDifferenceNamesTheMemberThatMoved)
{
    sim::RunResult a;
    sim::RunResult b;
    EXPECT_EQ(firstDifference(a, b), "");
    b.vrAging = {1.0};
    EXPECT_EQ(firstDifference(a, b), "vrAging");
    b = a;
    b.resilience.alertsInjected = 1;
    EXPECT_EQ(firstDifference(a, b), "resilience.alertsInjected");
    // Bit patterns, not ==: the sign of a zero counts.
    b = a;
    b.maxTmax = -0.0;
    EXPECT_EQ(firstDifference(a, b), "maxTmax");
}

} // namespace
} // namespace fields
} // namespace tg
