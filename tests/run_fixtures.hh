/**
 * @file
 * Fixtures shared by the run-loop determinism suites: a fault
 * scenario that exercises every fault family the run loop reacts to,
 * and the FNV-1a digest of a RunResult's bit-exact encoding.
 */

#ifndef TG_TESTS_RUN_FIXTURES_HH
#define TG_TESTS_RUN_FIXTURES_HH

#include <cstdint>
#include <vector>

#include "cache/serialize.hh"
#include "common/bytes.hh"
#include "fault/scenario.hh"
#include "sim/result.hh"

namespace tg {
namespace sim {

/**
 * A sensor stuck hot from 0.5 ms, a regulator dead for 1 ms from
 * 1 ms, a regulator derated 2x for the whole run, and half of the
 * emergency alerts missed. Needs a chip with at least 4 VRs.
 */
inline fault::FaultScenario
mixedFaultScenario(int n_vrs)
{
    fault::FaultScenario scenario(0x5ce7a1ull);
    auto ev = [&](fault::FaultKind kind, int target, Seconds start,
                  Seconds duration, double magnitude) {
        fault::FaultEvent e;
        e.kind = kind;
        e.target = target;
        e.start = start;
        e.duration = duration;
        e.magnitude = magnitude;
        scenario.add(e);
    };
    ev(fault::FaultKind::SensorStuckAt, 0, 0.5e-3, fault::kForever,
       140.0);
    ev(fault::FaultKind::VrStuckOff, 1 % n_vrs, 1e-3, 1e-3, 0.0);
    ev(fault::FaultKind::VrDerated, 3 % n_vrs, 0.0, fault::kForever,
       2.0);
    ev(fault::FaultKind::AlertMissed, 0, 0.0, fault::kForever, 0.5);
    return scenario;
}

/** FNV-1a of the bit-exact RunResult codec: covers every field. */
inline std::uint64_t
resultDigest(const RunResult &r)
{
    const std::vector<std::uint8_t> encoded = cache::encodeRunResult(r);
    return bytes::fnv1a(encoded.data(), encoded.size());
}

} // namespace sim
} // namespace tg

#endif // TG_TESTS_RUN_FIXTURES_HH
