/**
 * @file
 * Canonical content fingerprints for the artifact cache.
 *
 * Every cacheable artifact (activity/power traces, thermal-predictor
 * fits, PDN base factorisations, whole RunResults) is a deterministic
 * function of plain-data inputs: chip geometry, SimConfig, workload
 * profile, policy, record options and seed. A Fingerprint is a stable
 * 128-bit content hash over exactly those inputs, so equal
 * fingerprints imply bit-identical artifacts (the determinism
 * contract PRs 1-6 pinned) and the cache may substitute a stored
 * artifact for a recompute.
 *
 * Stability contract: the hash never depends on std::hash, pointer
 * values, iteration order of unordered containers, or the host; the
 * golden-value tests in tests/test_cache.cc pin the exact digests so
 * any accidental drift of the key derivation fails loudly instead of
 * silently splitting (or worse, aliasing) the cache namespace.
 *
 * configFingerprint() hashes the SimConfig members whose
 * sim::kSimConfigFields entry carries the fields::Hashed flag. The
 * others are bit-invisible knobs, proven not to change any result bit
 * (tests/test_run_determinism.cc, test_epoch_coalescing.cc), so runs
 * that differ only in them share cache entries — a warm cache answers
 * `--jobs 4` queries recorded at `--jobs 1`.
 */

#ifndef TG_CACHE_FINGERPRINT_HH
#define TG_CACHE_FINGERPRINT_HH

#include <cstdint>
#include <string>
#include <vector>

namespace tg {

namespace floorplan {
struct Chip;
}
namespace power {
struct PowerParams;
}
namespace workload {
struct BenchmarkProfile;
}
namespace fault {
class FaultScenario;
}
namespace sim {
struct SimConfig;
struct RecordOptions;
}

namespace cache {

/** Stable 128-bit content hash. */
struct Fingerprint
{
    std::uint64_t hi = 0;
    std::uint64_t lo = 0;

    bool operator==(const Fingerprint &o) const
    {
        return hi == o.hi && lo == o.lo;
    }
    bool operator!=(const Fingerprint &o) const { return !(*this == o); }

    /** 32 lowercase hex digits (hi then lo), for file names/goldens. */
    std::string hex() const;
};

/**
 * Incremental 128-bit mixer with typed absorb methods. Each field
 * kind feeds a distinct domain-separation tag before its payload, so
 * e.g. the empty string and the integer 0 never collide, and field
 * boundaries cannot alias (str("ab")+str("c") != str("a")+str("bc")).
 */
class Hasher
{
  public:
    Hasher &u64(std::uint64_t v);
    Hasher &i64(long long v) { return u64(static_cast<std::uint64_t>(v)); }
    Hasher &u32(std::uint32_t v) { return u64(v); }
    /** Doubles hash by bit pattern: bit-equal inputs, equal hashes. */
    Hasher &f64(double v);
    Hasher &boolean(bool v) { return u64(v ? 1 : 2); }
    Hasher &str(const std::string &s);
    /** Fold a finished fingerprint in (for hierarchical keys). */
    Hasher &fp(const Fingerprint &f);

    /** Finalize (the Hasher may keep absorbing afterwards). */
    Fingerprint digest() const;

  private:
    void absorb(std::uint64_t word);

    std::uint64_t a = 0x6c62272e07bb0142ull; //!< lane A state
    std::uint64_t b = 0x62b821756295c58dull; //!< lane B state
    std::uint64_t n = 0;                     //!< words absorbed
};

/** Chip geometry + parameters: blocks, VR sites, domains, die. */
Fingerprint chipFingerprint(const floorplan::Chip &chip);

/** Every SimConfig member that can influence a result bit: the
 *  Hashed entries of sim::kSimConfigFields (see the header note). */
Fingerprint configFingerprint(const sim::SimConfig &cfg);

/**
 * Power-model parameters alone — the fine-grained key component of
 * the power-trace artifact, so trace entries survive config changes
 * that cannot touch the trace (sensor, PDN, health knobs, ...).
 */
Fingerprint powerParamsFingerprint(const power::PowerParams &p);

/** Full benchmark-profile contents (not just the name). */
Fingerprint profileFingerprint(const workload::BenchmarkProfile &p);

/** Fault-scenario seed + every scheduled event. */
Fingerprint scenarioFingerprint(const fault::FaultScenario &scenario);

/**
 * RecordOptions incl. the referenced fault scenario (empty/null
 * scenarios hash alike, matching the run loop's clean-path rule).
 */
Fingerprint
recordOptionsFingerprint(const sim::RecordOptions &opts);

} // namespace cache
} // namespace tg

#endif // TG_CACHE_FINGERPRINT_HH
