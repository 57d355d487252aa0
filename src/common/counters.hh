/**
 * @file
 * Counter records: plain structs of std::uint64_t counters that are
 * both a component's live storage and the snapshot it hands out.
 *
 * The owner keeps one instance live and updates it in place through
 * relaxed std::atomic_ref operations (add/set), so no mirrored set of
 * std::atomic members is needed. Snapshots are advisory: a copy taken
 * under contention may mix counts from either side of an update.
 *
 * Each record declares one field list (common/fields.hh) in wire
 * order, returned by its fieldsOf() overload, whose entries are
 * counters, nested counter records and fixed-size arrays of them.
 * Everything that walks a record (snapshot, reset, wire codec,
 * printouts) iterates that list, so a new counter needs a field, a
 * list entry and its increment sites; the list's coverage check fails
 * the build when the entry is missing.
 */

#ifndef TG_COMMON_COUNTERS_HH
#define TG_COMMON_COUNTERS_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <type_traits>

#include "common/fields.hh"

namespace tg {
namespace counters {

static_assert(std::atomic_ref<std::uint64_t>::required_alignment <=
                  alignof(std::uint64_t),
              "counter fields must be usable through atomic_ref");

/** Relaxed atomic add to a live counter; returns the prior value. */
inline std::uint64_t add(std::uint64_t &c, std::uint64_t n = 1)
{
    return std::atomic_ref<std::uint64_t>(c).fetch_add(
        n, std::memory_order_relaxed);
}

inline void sub(std::uint64_t &c, std::uint64_t n)
{
    std::atomic_ref<std::uint64_t>(c).fetch_sub(
        n, std::memory_order_relaxed);
}

inline void set(std::uint64_t &c, std::uint64_t v)
{
    std::atomic_ref<std::uint64_t>(c).store(v, std::memory_order_relaxed);
}

/** Copy a live counter, listed record or array of them into `out`;
 *  a record through the list its fieldsOf() overload returns. */
template <class T>
void load(const T &live, T &out)
{
    if constexpr (std::is_same_v<T, std::uint64_t>)
        // atomic_ref<const T> is not C++20; a load never writes.
        out = std::atomic_ref<std::uint64_t>(const_cast<T &>(live))
                  .load(std::memory_order_relaxed);
    else if constexpr (fields::isStdArray<T>)
        for (std::size_t i = 0; i < live.size(); ++i)
            load(live[i], out[i]);
    else
        fields::forEach(fieldsOf(live), [&](const auto &e) {
            load(live.*e.member, out.*e.member);
        });
}

/** Zero a live counter, listed record or array of them, keeping
 *  every entry flagged fields::Level. */
template <class T>
void zero(T &live)
{
    if constexpr (std::is_same_v<T, std::uint64_t>)
        set(live, 0);
    else if constexpr (fields::isStdArray<T>)
        for (auto &x : live)
            zero(x);
    else
        fields::forEach(fieldsOf(live), [&]<class E>(const E &e) {
            if constexpr ((E::flags & fields::Level) == 0)
                zero(live.*e.member);
        });
}

/** Call fn(name, value) for each counter entry of `rec`'s list, in
 *  order; its nested records and arrays are the caller's to walk. */
template <class Record, class Fn>
void forEachCounter(const Record &rec, Fn &&fn)
{
    fields::forEach(fieldsOf(rec), [&]<class E>(const E &e) {
        if constexpr (std::is_same_v<typename E::Type, std::uint64_t>)
            fn(e.name, rec.*e.member);
    });
}

} // namespace counters
} // namespace tg

#endif // TG_COMMON_COUNTERS_HH
