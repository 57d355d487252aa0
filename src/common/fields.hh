/**
 * @file
 * Field lists: a record walked member by member (encoded, decoded,
 * hashed, compared, snapshotted, printed) lists its members once, as a
 * constant tuple of entries beside the struct, and every walker
 * iterates that list. An entry is a member's name and pointer,
 * compile-time flags and an inclusive [lo, hi] bounding a decoded
 * scalar, or the count of a string or vector. DESIGN.md ("Field
 * lists") has the rules.
 */

#ifndef TG_COMMON_FIELDS_HH
#define TG_COMMON_FIELDS_HH

#include <array>
#include <cstdint>
#include <limits>
#include <string>
#include <tuple>
#include <type_traits>
#include <vector>

#include "common/bytes.hh"

namespace tg {
namespace fields {

/** Entry flags: part of the record's content fingerprint; part of its
 *  wire encoding; a level (a counter reading a current amount, which
 *  counters::zero() keeps). */
enum : unsigned { Hashed = 1, Wire = 2, Level = 4 };

template <class T>
using Bound = std::conditional_t<std::is_arithmetic_v<T> || std::is_enum_v<T>,
                                 T, std::uint64_t>;

/** The default range: all of T, every double (NaN included). An enum
 *  entry names its range. */
template <class T>
inline constexpr Bound<T> lowest = std::numeric_limits<Bound<T>>::lowest();
template <class T>
inline constexpr Bound<T> highest = std::numeric_limits<Bound<T>>::max();
template <>
inline constexpr double lowest<double> =
    -std::numeric_limits<double>::infinity();
template <>
inline constexpr double highest<double> =
    std::numeric_limits<double>::infinity();

template <unsigned Flags, class Record, class T>
struct Entry
{
    static constexpr unsigned flags = Flags;
    using Type = T;
    const char *name;
    T Record::*member;
    Bound<T> lo, hi;
};

template <unsigned Flags = Wire, class Record, class T>
constexpr Entry<Flags, Record, T> field(const char *name, T Record::*m,
                                        Bound<T> lo = lowest<T>,
                                        Bound<T> hi = highest<T>)
{
    return {name, m, lo, hi};
}

/** Call fn(entry) for every entry of a list, in order. */
template <class List, class Fn>
constexpr void forEach(const List &list, Fn &&fn)
{
    std::apply([&](const auto &...e) { (fn(e), ...); }, list);
}

/** Converts to any member type; named only in unevaluated operands. */
struct AnyMember
{
    template <class T>
    operator T() const;
};

/** Members of aggregate T, counted by brace-initializing it: blind to
 *  base classes, and a C array member counts once per element. */
template <class T, class... A>
constexpr std::size_t memberCount()
{
    static_assert(std::is_aggregate_v<T>);
    if constexpr (requires { T{A{}..., AnyMember{}}; })
        return memberCount<T, A..., AnyMember>();
    else
        return sizeof...(A);
}

template <class Record, class List>
constexpr bool covers(const List &)
{
    return memberCount<Record>() == std::tuple_size_v<List>;
}

/** A record with a field list: its fieldsOf() overload, found by
 *  argument-dependent lookup, returns the list. */
template <class T>
concept Listed = requires(const T &v) { fieldsOf(v); };

template <class T>
inline constexpr bool isStdArray = false;
template <class T, std::size_t N>
inline constexpr bool isStdArray<std::array<T, N>> = true;

template <class Writer, class Record, class List>
void putAll(Writer &w, const Record &rec, const List &list);
template <class Record, class List>
bool getAll(bytes::ByteReader &r, Record &rec, const List &list);

/** Append `v` by the wire rule (DESIGN.md, "Field lists") to a
 *  bytes::ByteWriter, or count its bytes on a bytes::ByteCounter; a
 *  nested record through the list its fieldsOf() overload returns. */
template <class Writer, class T>
void put(Writer &w, const T &v)
{
    if constexpr (std::is_same_v<T, bool> || std::is_same_v<T, std::uint8_t>)
        w.u8(v);
    else if constexpr (std::is_enum_v<T> || std::is_same_v<T, std::uint32_t>)
        w.u32(static_cast<std::uint32_t>(v));
    else if constexpr (std::is_floating_point_v<T>)
        w.f64(v);
    else if constexpr (std::is_unsigned_v<T>)
        w.u64(v);
    else if constexpr (std::is_integral_v<T>)
        w.i64(v);
    else if constexpr (std::is_same_v<T, std::string>)
        w.str(v);
    else if constexpr (std::is_same_v<T, std::vector<std::uint8_t>>)
        w.blob(v);
    else if constexpr (requires { v.size(); }) {
        w.u64(v.size());
        for (const auto &x : v)
            put(w, x);
    } else
        putAll(w, v, fieldsOf(v));
}

/** Read `v` by the wire rule. A value outside [lo, hi], a count above
 *  the bytes left and a std::array's count other than its size fail
 *  the reader before anything is allocated, so one check at the end
 *  covers a whole decode. Returns r.ok(). */
template <class T>
bool get(bytes::ByteReader &r, T &v, Bound<T> lo = lowest<T>,
         Bound<T> hi = highest<T>)
{
    bool in = true;
    if constexpr (std::is_same_v<T, bool>) {
        v = r.u8() != 0;
    } else if constexpr (std::is_floating_point_v<T>) {
        v = r.f64();
        in = (lo <= v && v <= hi) ||
             (lo == lowest<T> && hi == highest<T>);
    } else if constexpr (std::is_arithmetic_v<T> || std::is_enum_v<T>) {
        using Wide = std::conditional_t<std::is_signed_v<T>, long long,
                                        std::uint64_t>;
        Wide x = 0;
        if constexpr (std::is_same_v<T, std::uint8_t>)
            x = r.u8();
        else if constexpr (std::is_enum_v<T> ||
                           std::is_same_v<T, std::uint32_t>)
            x = r.u32();
        else if constexpr (std::is_signed_v<T>)
            x = r.i64();
        else
            x = r.u64();
        in = x >= static_cast<Wide>(lo) && x <= static_cast<Wide>(hi);
        v = static_cast<T>(x);
    } else if constexpr (std::is_same_v<T, std::string>) {
        v = r.str();
        in = v.size() >= lo && v.size() <= hi;
    } else if constexpr (std::is_same_v<T, std::vector<std::uint8_t>>) {
        r.blob(v);
        in = v.size() >= lo && v.size() <= hi;
    } else if constexpr (requires { v.size(); }) {
        const std::uint64_t n = r.u64();
        in = n <= r.left() && n >= lo && n <= hi;
        if constexpr (isStdArray<T>)
            in = in && n == v.size();
        else
            v.resize(in ? static_cast<std::size_t>(n) : 0);
        for (auto &x : v)
            get(r, x);
    } else {
        getAll(r, v, fieldsOf(v));
    }
    if (!in)
        r.fail();
    return r.ok();
}

/** Append every Wire member of `rec`, in list order. */
template <class Writer, class Record, class List>
void putAll(Writer &w, const Record &rec, const List &list)
{
    forEach(list, [&]<class E>(const E &e) {
        if constexpr ((E::flags & Wire) != 0)
            put(w, rec.*e.member);
    });
}

/** Read every Wire member of `rec`, in list order; returns r.ok(). */
template <class Record, class List>
bool getAll(bytes::ByteReader &r, Record &rec, const List &list)
{
    forEach(list, [&]<class E>(const E &e) {
        if constexpr ((E::flags & Wire) != 0)
            get(r, rec.*e.member, e.lo, e.hi);
    });
    return r.ok();
}

/** Bytes putAll() appends for `rec`, counted by walking the same
 *  list, so an encoder can reserve its buffer once. */
template <class Record, class List>
std::size_t encodedSize(const Record &rec, const List &list)
{
    bytes::ByteCounter n;
    putAll(n, rec, list);
    return n.size;
}

/** A payload holding `rec` alone, and its decoder, which also refuses
 *  trailing bytes. */
template <class Record, class List>
std::vector<std::uint8_t> encode(const Record &rec, const List &list)
{
    bytes::ByteWriter w;
    w.reserve(encodedSize(rec, list));
    putAll(w, rec, list);
    return w.take();
}

template <class Record, class List>
bool decode(const std::vector<std::uint8_t> &p, Record &rec,
            const List &list)
{
    bytes::ByteReader r(p.data(), p.size());
    return getAll(r, rec, list) && r.exhausted();
}

/**
 * The first member of a listed record, in list order, whose bits
 * differ between `a` and `b` ("resilience.alertsInjected" inside a
 * nested listed record), or "" when every member matches bit for bit:
 * `EXPECT_EQ(firstDifference(a, b), "")` names the one that moved.
 * Members compare by their wire encoding, so a double's sign of zero
 * and NaN payload count.
 */
template <Listed Record>
std::string firstDifference(const Record &a, const Record &b)
{
    std::string diff;
    forEach(fieldsOf(a), [&](const auto &e) {
        const auto &x = a.*e.member;
        const auto &y = b.*e.member;
        if (!diff.empty())
            return;
        if constexpr (Listed<std::remove_cvref_t<decltype(x)>>) {
            const std::string inner = firstDifference(x, y);
            if (!inner.empty())
                diff = std::string(e.name) + "." + inner;
        } else {
            bytes::ByteWriter wx, wy;
            put(wx, x);
            put(wy, y);
            if (wx.bytes() != wy.bytes())
                diff = e.name;
        }
    });
    return diff;
}

} // namespace fields
} // namespace tg

#endif // TG_COMMON_FIELDS_HH
