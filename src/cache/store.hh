/**
 * @file
 * Thread-safe, in-memory content-addressed artifact store.
 *
 * Artifacts are immutable once inserted (shared_ptr<const T>), so a
 * stored object may be handed to any number of concurrent readers —
 * the same read-only-after-build property that lets sweep workers
 * share a PowerTrace. One mutex guards one LRU list evicted against
 * the whole byte budget; a run probes the store only a handful of
 * times (trace, predictor, PDN bases, memo).
 *
 * Soundness: keys are canonical content fingerprints over every
 * result-bit-relevant input (cache/fingerprint.hh), and every
 * producer is bit-exactly deterministic, so replacing a recompute
 * with a stored artifact cannot change any output bit. A racing
 * double-build of the same key is therefore also harmless: both
 * builders produce identical bytes and either copy may win.
 *
 * The process-wide singleton store() takes its in-memory byte budget
 * from TG_CACHE_MEM_MB (default 512 MiB).
 */

#ifndef TG_CACHE_STORE_HH
#define TG_CACHE_STORE_HH

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "cache/fingerprint.hh"
#include "common/counters.hh"

namespace tg {
namespace cache {

/** Artifact classes kept in the store (separate key namespaces). */
enum class ArtifactKind
{
    PowerTrace, //!< power::PowerTrace (profile x power model x epochs)
    Predictor,  //!< thermal-predictor fit (chip x config)
    PdnBase,    //!< PDN base factorisations + transfer resistances
    RunResult,  //!< whole sim::RunResult (full run tuple)
};
constexpr int kArtifactKinds = 4;

/** Display name ("power-trace", ...). */
const char *artifactKindName(ArtifactKind kind);

/**
 * Store counters: the store's live record and the snapshot stats()
 * returns (common/counters.hh). The disk tier counts into the same
 * record, so one snapshot covers both tiers.
 */
struct StoreStats
{
    struct PerKind
    {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::uint64_t inserts = 0;
        std::uint64_t bytes = 0; //!< currently resident payload bytes
        std::uint64_t evictions = 0;
    };
    std::array<PerKind, kArtifactKinds> kind{};
    /** Sum of the per-kind evictions; stats() computes it. */
    std::uint64_t evictions = 0;

    std::uint64_t diskHits = 0;
    std::uint64_t diskMisses = 0;
    std::uint64_t diskWrites = 0;
    std::uint64_t diskRejects = 0; //!< corrupt/truncated files refused
    std::uint64_t diskTmpSwept = 0; //!< orphaned .tmp-* files removed

    /** Sum of one per-kind counter over every kind. */
    std::uint64_t total(std::uint64_t PerKind::*counter) const;
    std::uint64_t hitsTotal() const { return total(&PerKind::hits); }
    std::uint64_t missesTotal() const { return total(&PerKind::misses); }
    std::uint64_t bytesTotal() const { return total(&PerKind::bytes); }

    /** One-line human-readable summary for bench/CLI reporting. */
    std::string describe() const;
};

/** StoreStats::PerKind's counters, in wire order (common/fields.hh). */
inline constexpr auto kStoreKindFields = std::tuple{
    fields::field("hits", &StoreStats::PerKind::hits),
    fields::field("misses", &StoreStats::PerKind::misses),
    fields::field("inserts", &StoreStats::PerKind::inserts),
    fields::field<fields::Wire | fields::Level>("bytes",
                                                &StoreStats::PerKind::bytes),
    fields::field("evictions", &StoreStats::PerKind::evictions),
};
static_assert(fields::covers<StoreStats::PerKind>(kStoreKindFields));

constexpr const auto &fieldsOf(const StoreStats::PerKind &)
{
    return kStoreKindFields;
}

/** StoreStats's members, in wire order: the per-kind records (their
 *  count first, so a build with another kind set is refused rather
 *  than misread), then the eviction total and the disk counters. */
inline constexpr auto kStoreFields = std::tuple{
    fields::field("kind", &StoreStats::kind),
    fields::field("evictions", &StoreStats::evictions),
    fields::field("disk-hits", &StoreStats::diskHits),
    fields::field("disk-misses", &StoreStats::diskMisses),
    fields::field("disk-writes", &StoreStats::diskWrites),
    fields::field("disk-rejects", &StoreStats::diskRejects),
    fields::field("disk-tmp-swept", &StoreStats::diskTmpSwept),
};
static_assert(fields::covers<StoreStats>(kStoreFields));

constexpr const auto &fieldsOf(const StoreStats &) { return kStoreFields; }

/**
 * The in-memory tier. All methods are thread-safe.
 *
 * Payloads are type-erased; each ArtifactKind must be used with one
 * consistent T (enforced by the typed accessors being the only
 * callers in the tree).
 */
class ArtifactStore
{
  public:
    explicit ArtifactStore(std::size_t capacity_bytes = kDefaultCapacity);

    /** ~512 MiB: a full 14x8 sweep's artifacts fit comfortably. */
    static constexpr std::size_t kDefaultCapacity =
        std::size_t(512) << 20;

    /** Probe; null on miss (or when disabled). Bumps hit/miss. */
    std::shared_ptr<const void> getRaw(ArtifactKind kind,
                                       const Fingerprint &key);

    /**
     * Insert (no-op when disabled). `bytes` is the payload's resident
     * size for budget accounting. Re-inserting an existing key keeps
     * the resident copy (first write wins — both are identical by the
     * determinism argument above).
     */
    void putRaw(ArtifactKind kind, const Fingerprint &key,
                std::shared_ptr<const void> value, std::size_t bytes);

    template <class T>
    std::shared_ptr<const T> get(ArtifactKind kind, const Fingerprint &key)
    {
        return std::static_pointer_cast<const T>(getRaw(kind, key));
    }

    template <class T>
    void put(ArtifactKind kind, const Fingerprint &key,
             std::shared_ptr<const T> value, std::size_t bytes)
    {
        putRaw(kind, key, std::static_pointer_cast<const void>(value),
               bytes);
    }

    /**
     * Probe, else build and insert. `build` returns
     * shared_ptr<const T>; `bytes(const T&)` sizes it for the budget.
     * The build runs outside the store's lock, so concurrent
     * same-key builders may race — harmless (identical results).
     */
    template <class T, class Build, class Bytes>
    std::shared_ptr<const T> getOrBuild(ArtifactKind kind,
                                        const Fingerprint &key,
                                        Build &&build, Bytes &&bytes)
    {
        if (auto hit = get<T>(kind, key))
            return hit;
        std::shared_ptr<const T> made = build();
        if (made)
            put<T>(kind, key, made, bytes(*made));
        return made;
    }

    /** Drop everything (counters survive; see resetStats). */
    void clear();

    /** Runtime kill switch; a disabled store misses and drops puts. */
    void setEnabled(bool on) { enabledFlag.store(on); }
    bool enabled() const { return enabledFlag.load(); }

    StoreStats stats() const;

    /** Zero every counter except each kind's resident bytes. */
    void resetStats();

    /** Add `n` to one top-level counter (DiskTier counts here). */
    void count(std::uint64_t StoreStats::*counter, std::uint64_t n = 1)
    {
        counters::add(live.*counter, n);
    }

  private:
    struct Key
    {
        ArtifactKind kind;
        Fingerprint fp;
        bool operator==(const Key &o) const
        {
            return kind == o.kind && fp == o.fp;
        }
    };
    struct KeyHash
    {
        std::size_t operator()(const Key &k) const
        {
            // fp is already avalanche-mixed; fold the kind in.
            return static_cast<std::size_t>(
                k.fp.lo ^ (k.fp.hi * 0x9e3779b97f4a7c15ull) ^
                static_cast<std::uint64_t>(k.kind));
        }
    };

    struct Entry
    {
        Key key;
        std::shared_ptr<const void> value;
        std::size_t bytes = 0;
    };

    /** Evict LRU entries down to the budget; `mu` is held. */
    void evictLocked();

    std::mutex mu; //!< guards lru, map and resident
    std::list<Entry> lru; //!< front = most recently used
    std::unordered_map<Key, std::list<Entry>::iterator, KeyHash> map;
    std::size_t resident = 0; //!< payload bytes in lru
    std::atomic<bool> enabledFlag{true};
    const std::size_t capacity;

    StoreStats live; //!< updated in place; see common/counters.hh
};

/**
 * Process-wide store shared by every Simulation/sweep in the
 * process. Construction honours TG_CACHE_MEM_MB.
 */
ArtifactStore &store();

} // namespace cache
} // namespace tg

#endif // TG_CACHE_STORE_HH
