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
 * Each record declares one field list, a constant array of
 * (name, member) pairs in wire order. Everything that walks a record
 * (snapshot, reset, wire codec, printouts) iterates that list, so a
 * new counter needs a field, a list entry and its increment sites.
 */

#ifndef TG_COMMON_COUNTERS_HH
#define TG_COMMON_COUNTERS_HH

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace tg {
namespace counters {

static_assert(std::atomic_ref<std::uint64_t>::required_alignment <=
                  alignof(std::uint64_t),
              "counter fields must be usable through atomic_ref");

/** One counter of a record type: display name and member. */
template <class Record>
struct Field
{
    const char *name;
    std::uint64_t Record::*member;
    /** A level (resident bytes, queue depth) reads a current amount
     *  rather than counting events; zero() keeps it. */
    bool level = false;
};

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

/** Copy every listed counter of a live record into `out`. */
template <class Record, std::size_t N>
void load(const Record &live, Record &out, const Field<Record> (&fields)[N])
{
    // atomic_ref<const T> is not C++20; a load never writes.
    Record &shared = const_cast<Record &>(live);
    for (const Field<Record> &f : fields)
        out.*f.member = std::atomic_ref<std::uint64_t>(shared.*f.member)
                            .load(std::memory_order_relaxed);
}

/** Zero every listed counter of a live record except the levels. */
template <class Record, std::size_t N>
void zero(Record &live, const Field<Record> (&fields)[N])
{
    for (const Field<Record> &f : fields)
        if (!f.level)
            set(live.*f.member, 0);
}

} // namespace counters
} // namespace tg

#endif // TG_COMMON_COUNTERS_HH
