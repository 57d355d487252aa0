/**
 * @file
 * Simulation configuration: timing, solver, sampling and sensor
 * parameters with defaults matching the paper's setup (Section 5).
 */

#ifndef TG_SIM_CONFIG_HH
#define TG_SIM_CONFIG_HH

#include <cstdint>
#include <limits>
#include <string>

#include "common/fields.hh"
#include "pdn/domain_pdn.hh"
#include "power/model.hh"
#include "sensors/emergency_predictor.hh"
#include "sensors/health.hh"
#include "sensors/thermal_sensor.hh"
#include "thermal/model.hh"

namespace tg {
namespace sim {

/** Which regulator design populates the 96 VR sites. */
enum class RegulatorChoice
{
    Fivr, //!< Intel-FIVR-like buck phases (main evaluation)
    Ldo,  //!< POWER8-like digital LDOs (Section 6.4)
};

/** Top-level simulation knobs. */
struct SimConfig
{
    RegulatorChoice regulator = RegulatorChoice::Fivr;

    /** Gating decision interval [s] (paper: 1 ms). */
    Seconds decisionInterval = 1e-3;

    /**
     * Voltage-noise sampling (paper: 200 windows of 2K cycles with
     * 1K warm-up; the defaults here are scaled down to keep the
     * 112-run figure sweeps fast — no test runs the paper's setting,
     * only the perfbench `run-paper` workload does).
     */
    int noiseSamples = 32;       //!< windows per run
    int noiseCyclesTotal = 600;  //!< cycles per window
    int noiseWarmupCycles = 200; //!< leading cycles excluded

    /**
     * Lanes per lockstep batch of the transient kernel. Not a
     * setting: runs always batch the widest kernel's width, and a
     * ragged batch runs padded (pdn::DomainPdn::transientWindowBatch).
     * Kept for perfbench's `pdn` probe, which reads it.
     */
    static constexpr int noiseBatchWidth = pdn::DomainPdn::kMaxWindowBatch;

    /** Epochs of the theta-profiling pass (Section 6.3); at least 3,
     *  since the fit skips the first two. */
    int profilingEpochs = 24;

    /**
     * Demand guardband of the practical policies: PracT/PracVT
     * provision n_on for max(WMA forecast, current demand) plus this
     * margin, the firmware-style guardband that keeps a lagging
     * forecast from under-supplying a rising phase (the efficiency
     * cost stays within the paper's 0.5%-of-peak envelope).
     */
    double practicalDemandMargin = 0.10;

    /**
     * Extra regulators the practical policies keep active beyond the
     * forecast-optimal count. At small n_on one regulator of
     * headroom is what keeps a forecast miss from dragging the
     * remaining actives deep past their peak-efficiency load (whose
     * conversion-loss penalty is exactly the thermal hazard the
     * paper's Section 6.1 warns about).
     */
    int practicalHeadroomVrs = 1;

    /** Master seed; all stochastic streams fork from it. */
    std::uint64_t seed = 0x7469;

    /**
     * Fan-out width of sweeps (runSweep and the drivers built on it)
     * and of each run's noise windows across domains, inline inside a
     * sweep cell. Positive values are used as-is; 0 defers to the
     * TG_JOBS environment variable and then to the hardware thread
     * count (see exec::resolveJobs). Results are bit-identical at
     * every width.
     */
    int jobs = 0;

    /**
     * On-disk artifact-cache directory. Empty defers to the
     * TG_CACHE_DIR environment variable; when both are empty the disk
     * tier is off and whole-run memoization (memoizeResults) stays
     * inactive too. Purely a performance knob: cached artifacts are
     * keyed by content fingerprints over every result-bit-relevant
     * input (see cache/fingerprint.hh), so a hit is bit-identical to
     * a recompute.
     */
    std::string cacheDir;

    /**
     * Memoize whole RunResults (in memory and, through cacheDir /
     * TG_CACHE_DIR, on disk) keyed by the full run tuple. Only takes
     * effect when a cache directory is configured — the explicit
     * opt-in keeps timing benches and determinism cross-checks, which
     * re-run identical tuples on purpose, measuring real work. The
     * policy-independent prebuild caches (power trace, predictor
     * fit, PDN base factors) are unaffected by this flag.
     */
    bool memoizeResults = true;

    thermal::ThermalParams thermalParams;
    power::PowerParams powerParams;
    pdn::PdnParams pdnParams;
    sensors::SensorParams sensorParams;
    sensors::PredictorParams predictorParams;
    /** Sensor quarantine heuristics, used only when a run injects a
     *  fault scenario (RecordOptions::faultScenario). */
    sensors::HealthParams healthParams;
};

/**
 * SimConfig's members (common/fields.hh). Hashed ones feed
 * cache::configFingerprint; the others cannot move a result bit. Wire
 * ones make up shard::encodeBasicSetup's blob, whose decoder refuses
 * what the Simulation asserts on and work past 10x the paper's method.
 */
inline constexpr auto kSimConfigFields = std::tuple{
    fields::field<fields::Hashed | fields::Wire>(
        "regulator", &SimConfig::regulator, RegulatorChoice::Fivr,
        RegulatorChoice::Ldo),
    fields::field<fields::Hashed | fields::Wire>(
        "decisionInterval", &SimConfig::decisionInterval,
        std::numeric_limits<double>::denorm_min(), 10e-3),
    fields::field<fields::Hashed | fields::Wire>(
        "noiseSamples", &SimConfig::noiseSamples, 0, 2000),
    fields::field<fields::Hashed | fields::Wire>(
        "noiseCyclesTotal", &SimConfig::noiseCyclesTotal, 1, 20000),
    fields::field<fields::Hashed | fields::Wire>(
        "noiseWarmupCycles", &SimConfig::noiseWarmupCycles, 0, 20000),
    // The profiling pass records samples from its third epoch on.
    fields::field<fields::Hashed | fields::Wire>(
        "profilingEpochs", &SimConfig::profilingEpochs, 3, 1000),
    fields::field<fields::Hashed | fields::Wire>(
        "practicalDemandMargin", &SimConfig::practicalDemandMargin,
        std::numeric_limits<double>::lowest(),
        std::numeric_limits<double>::max()),
    // Headroom past a domain's regulator count already means all of
    // them; the cap keeps `requiredActive + headroom` from overflowing.
    fields::field<fields::Hashed | fields::Wire>(
        "practicalHeadroomVrs", &SimConfig::practicalHeadroomVrs, 0,
        1 << 16),
    fields::field<fields::Hashed | fields::Wire>("seed", &SimConfig::seed),
    fields::field<0>("jobs", &SimConfig::jobs),
    fields::field("cacheDir", &SimConfig::cacheDir),
    fields::field("memoizeResults", &SimConfig::memoizeResults),
    fields::field<fields::Hashed>("thermalParams", &SimConfig::thermalParams),
    fields::field<fields::Hashed>("powerParams", &SimConfig::powerParams),
    fields::field<fields::Hashed>("pdnParams", &SimConfig::pdnParams),
    fields::field<fields::Hashed>("sensorParams", &SimConfig::sensorParams),
    fields::field<fields::Hashed>("predictorParams",
                                  &SimConfig::predictorParams),
    fields::field<fields::Hashed>("healthParams", &SimConfig::healthParams),
};
static_assert(fields::covers<SimConfig>(kSimConfigFields));

} // namespace sim
} // namespace tg

#endif // TG_SIM_CONFIG_HH
