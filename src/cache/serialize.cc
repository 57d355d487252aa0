#include "cache/serialize.hh"

#include "sim/result.hh"

namespace tg {
namespace cache {

namespace {

/** Version tag leading every encoded RunResult payload. */
constexpr std::uint32_t kRunResultMagic = 0x54475231; // "TGR1"

} // namespace

std::vector<std::uint8_t> encodeRunResult(const sim::RunResult &r)
{
    bytes::ByteWriter w;
    w.u32(kRunResultMagic);

    w.str(r.benchmark);
    w.u32(static_cast<std::uint32_t>(r.policy));

    w.f64(r.maxTmax);
    w.str(r.hottestSpot);
    w.f64(r.maxGradient);
    w.f64(r.maxNoiseFrac);
    w.f64(r.emergencyFrac);

    w.f64(r.avgRegulatorLoss);
    w.f64(r.avgEta);
    w.f64(r.avgActiveVrs);
    w.f64(r.meanPower);
    w.i64(r.overrideCount);

    w.f64vec(r.timeUs);
    w.f64vec(r.totalPowerW);
    w.f64vec(r.activeVrs);

    w.f64vec(r.trackedVrTemp);
    w.i32vec(r.trackedVrOn);

    w.f64vec(r.heatmap);
    w.i64(r.heatmapW);
    w.i64(r.heatmapH);
    w.f64(r.heatmapTimeUs);

    w.f64vec(r.noiseTrace);
    w.i64(r.noiseTraceDomain);
    w.f64(r.noiseTraceTimeUs);

    w.f64vec(r.vrActivity);
    w.f64vec(r.vrAging);
    w.f64(r.agingImbalance);

    const sim::ResilienceStats &s = r.resilience;
    w.i64(s.scheduledFaults);
    w.i64(s.faultedEpochs);
    w.i64(s.degradedDecisions);
    w.i64(s.floorEngagements);
    w.i64(s.underSuppliedDecisions);
    w.i64(s.quarantineEvents);
    w.i64(s.quarantinedEpochs);
    w.i64(s.peakQuarantined);
    w.f64(s.detectionLatency);
    w.i64(s.alertsSuppressed);
    w.i64(s.alertsInjected);
    w.i64(s.emergencyCyclesFaulted);
    w.i64(s.emergencyCyclesClean);

    return w.take();
}

bool decodeRunResult(const std::uint8_t *data, std::size_t size,
                     sim::RunResult &out)
{
    bytes::ByteReader r(data, size);
    if (r.u32() != kRunResultMagic)
        return false;

    out.benchmark = r.str();
    out.policy = static_cast<core::PolicyKind>(r.u32());

    out.maxTmax = r.f64();
    out.hottestSpot = r.str();
    out.maxGradient = r.f64();
    out.maxNoiseFrac = r.f64();
    out.emergencyFrac = r.f64();

    out.avgRegulatorLoss = r.f64();
    out.avgEta = r.f64();
    out.avgActiveVrs = r.f64();
    out.meanPower = r.f64();
    out.overrideCount = r.i64();

    if (!r.f64vec(out.timeUs) || !r.f64vec(out.totalPowerW) ||
        !r.f64vec(out.activeVrs) || !r.f64vec(out.trackedVrTemp) ||
        !r.i32vec(out.trackedVrOn) || !r.f64vec(out.heatmap))
        return false;
    out.heatmapW = static_cast<int>(r.i64());
    out.heatmapH = static_cast<int>(r.i64());
    out.heatmapTimeUs = r.f64();

    if (!r.f64vec(out.noiseTrace))
        return false;
    out.noiseTraceDomain = static_cast<int>(r.i64());
    out.noiseTraceTimeUs = r.f64();

    if (!r.f64vec(out.vrActivity) || !r.f64vec(out.vrAging))
        return false;
    out.agingImbalance = r.f64();

    sim::ResilienceStats &s = out.resilience;
    s.scheduledFaults = r.i64();
    s.faultedEpochs = r.i64();
    s.degradedDecisions = r.i64();
    s.floorEngagements = r.i64();
    s.underSuppliedDecisions = r.i64();
    s.quarantineEvents = r.i64();
    s.quarantinedEpochs = r.i64();
    s.peakQuarantined = static_cast<int>(r.i64());
    s.detectionLatency = r.f64();
    s.alertsSuppressed = r.i64();
    s.alertsInjected = r.i64();
    s.emergencyCyclesFaulted = r.i64();
    s.emergencyCyclesClean = r.i64();

    return r.exhausted();
}

std::size_t runResultBytes(const sim::RunResult &r)
{
    std::size_t b = sizeof(sim::RunResult);
    b += r.benchmark.size() + r.hottestSpot.size();
    b += 8 * (r.timeUs.size() + r.totalPowerW.size() +
              r.activeVrs.size() + r.trackedVrTemp.size() +
              r.heatmap.size() + r.noiseTrace.size() +
              r.vrActivity.size() + r.vrAging.size());
    b += sizeof(int) * r.trackedVrOn.size();
    return b;
}

} // namespace cache
} // namespace tg
