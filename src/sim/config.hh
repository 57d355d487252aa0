/**
 * @file
 * Simulation configuration: timing, solver, sampling and sensor
 * parameters with defaults matching the paper's setup (Section 5).
 */

#ifndef TG_SIM_CONFIG_HH
#define TG_SIM_CONFIG_HH

#include <cstdint>
#include <string>

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
     * Lockstep lanes of the batched transient kernel: a domain's
     * queued noise windows advance through the shared factorisation
     * up to this many at a time (1 = each window is solved as soon as
     * its frame queues it; clamped to pdn::DomainPdn::kMaxWindowBatch).
     * Purely a throughput knob — results are bit-identical at every
     * width.
     */
    int noiseBatchWidth = 4;

    /** Epochs of the theta-profiling pass (Section 6.3). */
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
     * Worker threads for sweep/grid execution (runSweep and the
     * drivers built on it). Positive values are used as-is; 0 defers
     * to the TG_JOBS environment variable and then to the hardware
     * thread count (see exec::resolveJobs). Results are bit-identical
     * at every worker count.
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

} // namespace sim
} // namespace tg

#endif // TG_SIM_CONFIG_HH
