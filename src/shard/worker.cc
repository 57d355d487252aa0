#include "shard/worker.hh"

#include <cmath>
#include <limits>

#include "common/bytes.hh"

namespace tg {
namespace shard {

namespace {

constexpr std::uint32_t kBasicSetupMagic = 0x31424754; // "TGB1"

/** Headroom past a domain's regulator count already means all of
 *  them; the cap keeps `requiredActive + headroom` from overflowing. */
constexpr int kMaxHeadroomVrs = 1 << 16;

/** Work caps (see decodeBasicSetup), so no request asks for
 *  gigabytes of window buffers or holds a daemon for minutes. */
constexpr int kMaxNoiseCycles = 20000;
constexpr double kMaxDecisionInterval = 10e-3; // seconds
constexpr int kMaxProfilingEpochs = 1000;

} // namespace

std::vector<std::uint8_t> encodeBasicSetup(ChipKind kind, int chip_arg,
                                           const sim::SimConfig &cfg)
{
    bytes::ByteWriter w;
    w.u32(kBasicSetupMagic);
    w.u32(static_cast<std::uint32_t>(kind));
    w.i64(chip_arg);
    w.u32(static_cast<std::uint32_t>(cfg.regulator));
    w.f64(cfg.decisionInterval);
    w.i64(cfg.noiseSamples);
    w.i64(cfg.noiseCyclesTotal);
    w.i64(cfg.noiseWarmupCycles);
    w.i64(cfg.noiseBatchWidth);
    w.i64(cfg.profilingEpochs);
    w.f64(cfg.practicalDemandMargin);
    w.i64(cfg.practicalHeadroomVrs);
    w.u64(cfg.seed);
    w.str(cfg.cacheDir);
    w.u8(cfg.memoizeResults ? 1 : 0);
    return w.take();
}

bool decodeBasicSetup(const std::vector<std::uint8_t> &blob,
                      ChipKind &kind, int &chip_arg,
                      sim::SimConfig &cfg)
{
    bytes::ByteReader r(blob.data(), blob.size());
    if (r.u32() != kBasicSetupMagic)
        return false;
    // Integer fields travel as i64; one outside int range is refused
    // rather than truncated into a different, valid-looking value.
    bool inRange = true;
    auto i32 = [&] {
        const std::int64_t v = r.i64();
        inRange = inRange && v >= std::numeric_limits<int>::min() &&
                  v <= std::numeric_limits<int>::max();
        return static_cast<int>(v);
    };
    const std::uint32_t kind_id = r.u32();
    chip_arg = i32();
    cfg = sim::SimConfig{};
    const std::uint32_t regulator = r.u32();
    cfg.decisionInterval = r.f64();
    cfg.noiseSamples = i32();
    cfg.noiseCyclesTotal = i32();
    cfg.noiseWarmupCycles = i32();
    cfg.noiseBatchWidth = i32();
    cfg.profilingEpochs = i32();
    cfg.practicalDemandMargin = r.f64();
    cfg.practicalHeadroomVrs = i32();
    cfg.seed = r.u64();
    cfg.cacheDir = r.str();
    cfg.memoizeResults = r.u8() != 0;
    if (!r.exhausted() || !inRange)
        return false;
    // The ranges Simulation asserts on: refuse them here, so a bad
    // blob costs an error reply instead of the process.
    kind = static_cast<ChipKind>(kind_id);
    cfg.regulator = static_cast<sim::RegulatorChoice>(regulator);
    const bool chipOk =
        kind == ChipKind::Power8 ||
        (kind == ChipKind::Mini && chip_arg >= 1 && chip_arg <= 64);
    const bool regulatorOk =
        regulator <= static_cast<std::uint32_t>(sim::RegulatorChoice::Ldo);
    const bool intervalOk = cfg.decisionInterval > 0.0 &&
                            cfg.decisionInterval <= kMaxDecisionInterval;
    const bool samplingOk = cfg.noiseSamples >= 0 &&
                            cfg.noiseSamples <= kMaxNoiseSamples &&
                            cfg.noiseCyclesTotal > 0 &&
                            cfg.noiseCyclesTotal <= kMaxNoiseCycles &&
                            cfg.noiseWarmupCycles >= 0 &&
                            cfg.noiseWarmupCycles < cfg.noiseCyclesTotal &&
                            cfg.profilingEpochs <= kMaxProfilingEpochs;
    const bool practicalOk = std::isfinite(cfg.practicalDemandMargin) &&
                             cfg.practicalHeadroomVrs >= 0 &&
                             cfg.practicalHeadroomVrs <= kMaxHeadroomVrs;
    return chipOk && regulatorOk && intervalOk && samplingOk && practicalOk;
}

} // namespace shard
} // namespace tg
