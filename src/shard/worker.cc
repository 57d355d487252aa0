#include "shard/worker.hh"

#include "common/bytes.hh"

namespace tg {
namespace shard {

constexpr std::uint32_t kBasicSetupMagic = 0x31424754; // "TGB1"

std::vector<std::uint8_t> encodeBasicSetup(ChipKind kind, int chip_arg,
                                           const sim::SimConfig &cfg)
{
    bytes::ByteWriter w;
    w.u32(kBasicSetupMagic);
    w.u32(static_cast<std::uint32_t>(kind));
    w.i64(chip_arg);
    fields::putAll(w, cfg, sim::kSimConfigFields);
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
    cfg = sim::SimConfig{};
    if (!fields::get(r, chip_arg) ||
        !fields::getAll(r, cfg, sim::kSimConfigFields) || !r.exhausted())
        return false;
    // What the ranges cannot say alone.
    const bool chipOk =
        kind == ChipKind::Power8 ||
        (kind == ChipKind::Mini && chip_arg >= 1 && chip_arg <= 64);
    return chipOk && cfg.noiseWarmupCycles < cfg.noiseCyclesTotal;
}

} // namespace shard
} // namespace tg
