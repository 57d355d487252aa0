#include "cache/fingerprint.hh"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "fault/scenario.hh"
#include "floorplan/power8.hh"
#include "sim/config.hh"
#include "sim/result.hh"
#include "workload/profile.hh"

namespace tg {
namespace cache {

namespace {

/** splitmix64 finalizer: the full-avalanche mixing step. */
std::uint64_t mix(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/** Domain-separation tags fed before each typed payload. */
constexpr std::uint64_t kTagU64 = 0x01;
constexpr std::uint64_t kTagF64 = 0x02;
constexpr std::uint64_t kTagStr = 0x03;
constexpr std::uint64_t kTagFp = 0x04;

void hashMember(Hasher &h, sim::RegulatorChoice v)
{
    h.u64(static_cast<std::uint64_t>(v));
}
void hashMember(Hasher &h, double v) { h.f64(v); }
void hashMember(Hasher &h, int v) { h.i64(v); }
void hashMember(Hasher &h, std::uint64_t v) { h.u64(v); }

// A parameter struct's count check fails the build on a new member.
void hashMember(Hasher &h, const thermal::ThermalParams &t)
{
    static_assert(fields::memberCount<thermal::ThermalParams>() == 16);
    h.i64(t.gridW)
        .i64(t.gridH)
        .i64(t.spreaderN)
        .f64(t.dieThickness)
        .f64(t.kSilicon)
        .f64(t.cvSilicon)
        .f64(t.timThickness)
        .f64(t.kTim)
        .f64(t.spreaderThickness)
        .f64(t.kCopper)
        .f64(t.cvCopper)
        .f64(t.spreaderSide)
        .f64(t.rConvection)
        .f64(t.vrCouplingResistance)
        .f64(t.ambient)
        .f64(t.step);
}

void hashMember(Hasher &h, const power::PowerParams &p)
{
    h.fp(powerParamsFingerprint(p));
}

void hashMember(Hasher &h, const pdn::PdnParams &pd)
{
    static_assert(fields::memberCount<pdn::PdnParams>() == 6);
    h.f64(pd.nodePitch)
        .f64(pd.sheetResistance)
        .f64(pd.decapPerMm2)
        .f64(pd.gridInductancePerM)
        .f64(pd.cycleTime)
        .f64(pd.emergencyFrac);
}

void hashMember(Hasher &h, const sensors::SensorParams &sn)
{
    static_assert(fields::memberCount<sensors::SensorParams>() == 3);
    h.f64(sn.delay).f64(sn.quantization).f64(sn.noiseSigma);
}

void hashMember(Hasher &h, const sensors::PredictorParams &pr)
{
    static_assert(fields::memberCount<sensors::PredictorParams>() == 2);
    h.f64(pr.sensitivity).f64(pr.falseAlarmRate);
}

void hashMember(Hasher &h, const sensors::HealthParams &hl)
{
    static_assert(fields::memberCount<sensors::HealthParams>() == 9);
    h.f64(hl.minPlausible)
        .f64(hl.maxPlausible)
        .f64(hl.maxStep)
        .f64(hl.freezeEps)
        .i64(hl.freezeReads)
        .f64(hl.freezeNeighbourMove)
        .f64(hl.neighbourTolerance)
        .f64(hl.readmitTolerance)
        .i64(hl.readmitReads);
}

} // namespace

std::string Fingerprint::hex() const
{
    char buf[33];
    std::snprintf(buf, sizeof buf, "%016llx%016llx",
                  static_cast<unsigned long long>(hi),
                  static_cast<unsigned long long>(lo));
    return std::string(buf);
}

void Hasher::absorb(std::uint64_t word)
{
    ++n;
    a = mix(a ^ word);
    b = mix(b + (word ^ (n * 0x9e3779b97f4a7c15ull)));
}

Hasher &Hasher::u64(std::uint64_t v)
{
    absorb(kTagU64);
    absorb(v);
    return *this;
}

Hasher &Hasher::f64(double v)
{
    std::uint64_t bits = 0;
    static_assert(sizeof bits == sizeof v, "double must be 64-bit");
    std::memcpy(&bits, &v, sizeof bits);
    absorb(kTagF64);
    absorb(bits);
    return *this;
}

Hasher &Hasher::str(const std::string &s)
{
    absorb(kTagStr);
    absorb(s.size());
    // Pack 8 bytes per word, zero-padded tail; the length word above
    // keeps "ab"+"\0..." distinct from "ab\0...".
    for (std::size_t i = 0; i < s.size(); i += 8) {
        std::uint64_t word = 0;
        const std::size_t chunk = std::min<std::size_t>(8, s.size() - i);
        std::memcpy(&word, s.data() + i, chunk);
        absorb(word);
    }
    return *this;
}

Hasher &Hasher::fp(const Fingerprint &f)
{
    absorb(kTagFp);
    absorb(f.hi);
    absorb(f.lo);
    return *this;
}

Fingerprint Hasher::digest() const
{
    // Finalize a copy so the Hasher may keep absorbing; fold the
    // length in so prefixes of a stream never alias its digests.
    Fingerprint out;
    out.hi = mix(a ^ mix(n));
    out.lo = mix(b + mix(n ^ 0x5851f42d4c957f2dull));
    if (out.hi == 0 && out.lo == 0)
        out.lo = 1; // reserve {0,0} as "no fingerprint"
    return out;
}

Fingerprint chipFingerprint(const floorplan::Chip &chip)
{
    Hasher h;
    h.str("tg.chip.v1");

    const floorplan::Floorplan &p = chip.plan;
    h.f64(p.width()).f64(p.height());

    h.u64(p.blocks().size());
    for (const floorplan::Block &blk : p.blocks()) {
        h.str(blk.name)
            .u64(static_cast<std::uint64_t>(blk.kind))
            .f64(blk.rect.x)
            .f64(blk.rect.y)
            .f64(blk.rect.w)
            .f64(blk.rect.h)
            .i64(blk.domain)
            .i64(blk.coreId);
    }

    h.u64(p.vrs().size());
    for (const floorplan::VrSite &vr : p.vrs()) {
        h.str(vr.name)
            .f64(vr.rect.x)
            .f64(vr.rect.y)
            .f64(vr.rect.w)
            .f64(vr.rect.h)
            .i64(vr.domain)
            .i64(vr.hostBlock)
            .boolean(vr.memorySide);
    }

    h.u64(p.domains().size());
    for (const floorplan::VddDomain &d : p.domains()) {
        h.i64(d.id).u64(static_cast<std::uint64_t>(d.kind)).str(d.name);
        h.u64(d.blocks.size());
        for (int b : d.blocks)
            h.i64(b);
        h.u64(d.vrs.size());
        for (int v : d.vrs)
            h.i64(v);
    }

    const floorplan::ChipParams &cp = chip.params;
    h.f64(cp.technologyNm)
        .f64(cp.frequencyHz)
        .f64(cp.tdp)
        .f64(cp.vdd)
        .f64(cp.areaMm2)
        .i64(cp.cores)
        .i64(cp.issueWidth);

    return h.digest();
}

Fingerprint configFingerprint(const sim::SimConfig &cfg)
{
    Hasher h;
    h.str("tg.config.v1");
    fields::forEach(sim::kSimConfigFields, [&]<class E>(const E &e) {
        if constexpr ((E::flags & fields::Hashed) != 0)
            hashMember(h, cfg.*e.member);
    });
    return h.digest();
}

Fingerprint powerParamsFingerprint(const power::PowerParams &pw)
{
    static_assert(fields::memberCount<power::PowerParams>() == 13);
    Hasher h;
    h.str("tg.power-params.v1");
    h.f64(pw.densityIfu)
        .f64(pw.densityIsu)
        .f64(pw.densityExu)
        .f64(pw.densityLsu)
        .f64(pw.densityL2)
        .f64(pw.densityL3)
        .f64(pw.densityNoc)
        .f64(pw.densityMc)
        .f64(pw.staticShareAt80C)
        .f64(pw.leakageCalibTemp)
        .f64(pw.leakageDoubling)
        .f64(pw.logicLeakageBoost)
        .f64(pw.memoryLeakageDerate);
    return h.digest();
}

Fingerprint profileFingerprint(const workload::BenchmarkProfile &p)
{
    Hasher h;
    h.str("tg.profile.v1");
    h.str(p.name)
        .str(p.fullName)
        .f64(p.meanUtilization)
        .f64(p.phaseAmplitude)
        .f64(p.phasePeriodUs)
        .f64(p.jitterSigma)
        .f64(p.imbalance)
        .f64(p.memoryIntensity)
        .f64(p.didtActivity)
        .f64(p.roiDurationUs)
        .f64(p.mix.fracInt)
        .f64(p.mix.fracFp)
        .f64(p.mix.fracLoad)
        .f64(p.mix.fracStore)
        .f64(p.mix.fracBranch)
        .f64(p.misses.l1)
        .f64(p.misses.l2)
        .f64(p.misses.l3);
    return h.digest();
}

Fingerprint scenarioFingerprint(const fault::FaultScenario &scenario)
{
    Hasher h;
    h.str("tg.scenario.v1");
    h.u64(scenario.seed());
    h.u64(scenario.events().size());
    for (const fault::FaultEvent &e : scenario.events()) {
        h.u64(static_cast<std::uint64_t>(e.kind))
            .i64(e.target)
            .f64(e.start)
            .f64(e.duration)
            .f64(e.magnitude);
    }
    return h.digest();
}

Fingerprint recordOptionsFingerprint(const sim::RecordOptions &opts)
{
    Hasher h;
    h.str("tg.record.v1");
    h.boolean(opts.timeSeries)
        .i64(opts.trackVr)
        .boolean(opts.heatmap)
        .boolean(opts.noiseTrace)
        .i64(opts.noiseSamplesOverride);
    // A null scenario and an empty one take the identical clean run
    // path in Simulation::runMixed, so they must hash alike.
    const bool faulted =
        opts.faultScenario != nullptr && !opts.faultScenario->empty();
    h.boolean(faulted);
    if (faulted)
        h.fp(scenarioFingerprint(*opts.faultScenario));
    return h.digest();
}

} // namespace cache
} // namespace tg
