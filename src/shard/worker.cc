#include "shard/worker.hh"

#include "common/bytes.hh"

namespace tg {
namespace shard {

namespace {

constexpr std::uint32_t kBasicSetupMagic = 0x31424754; // "TGB1"

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
    kind = static_cast<ChipKind>(r.u32());
    chip_arg = static_cast<int>(r.i64());
    cfg = sim::SimConfig{};
    cfg.regulator = static_cast<sim::RegulatorChoice>(r.u32());
    cfg.decisionInterval = r.f64();
    cfg.noiseSamples = static_cast<int>(r.i64());
    cfg.noiseCyclesTotal = static_cast<int>(r.i64());
    cfg.noiseWarmupCycles = static_cast<int>(r.i64());
    cfg.noiseBatchWidth = static_cast<int>(r.i64());
    cfg.profilingEpochs = static_cast<int>(r.i64());
    cfg.practicalDemandMargin = r.f64();
    cfg.practicalHeadroomVrs = static_cast<int>(r.i64());
    cfg.seed = r.u64();
    cfg.cacheDir = r.str();
    cfg.memoizeResults = r.u8() != 0;
    if (!r.exhausted())
        return false;
    return kind == ChipKind::Power8 || kind == ChipKind::Mini;
}

} // namespace shard
} // namespace tg
