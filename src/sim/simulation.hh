/**
 * @file
 * End-to-end ThermoGater simulation (paper Section 5's toolchain,
 * rebuilt): workload demand -> microarchitectural activity -> power
 * -> (governor + regulator network + thermal RC loop with leakage
 * feedback) -> sampled PDN voltage-noise analysis.
 *
 * A Simulation owns the heavyweight per-chip state (thermal model
 * factorisations, PDNs, regulator networks, fitted thermal
 * predictor) and can run many (benchmark, policy) combinations
 * against it; the figure sweeps reuse one instance.
 */

#ifndef TG_SIM_SIMULATION_HH
#define TG_SIM_SIMULATION_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cache/fingerprint.hh"
#include "common/exec.hh"
#include "core/governor.hh"
#include "core/thermal_predictor.hh"
#include "floorplan/power8.hh"
#include "pdn/domain_pdn.hh"
#include "power/model.hh"
#include "power/trace.hh"
#include "sim/config.hh"
#include "sim/result.hh"
#include "thermal/model.hh"
#include "vreg/network.hh"
#include "workload/profile.hh"

namespace tg {
namespace sim {

/**
 * Reusable simulation context for one chip + configuration.
 *
 * Threading: run()/runMixed() are deterministic functions of (chip,
 * config, profiles, policy, opts) — results never depend on what ran
 * before on the same instance — but they mutate instance state (the
 * per-domain PDN active-set factorisations and the lazily-fitted
 * thermal predictor), so concurrent runs must use one Simulation per
 * thread. sim::runSweep() arranges exactly that.
 */
class Simulation
{
  public:
    Simulation(const floorplan::Chip &chip, SimConfig cfg = {});

    /** Simulate one benchmark under one policy. */
    RunResult run(const workload::BenchmarkProfile &profile,
                  core::PolicyKind policy, RecordOptions opts = {});

    /**
     * Multi-programmed run: one benchmark per core (paper Section 7
     * — per-domain governance accommodates heterogeneous and
     * multi-programmed workloads). The co-run lasts as long as the
     * shortest program's ROI.
     *
     * @param label name recorded in the result
     */
    RunResult
    runMixed(const std::vector<const workload::BenchmarkProfile *>
                 &per_core,
             const std::string &label, core::PolicyKind policy,
             RecordOptions opts = {});

    /**
     * The fitted deltaT = theta * deltaP predictor (Eqn. 2);
     * triggers the profiling pass on first use.
     */
    const core::ThermalPredictor &thermalPredictor();

    /** R^2 (Eqn. 3) of the fitted predictor over profiling data. */
    double predictorRSquared();

    /**
     * Adopt an already-fitted predictor (from a sibling context with
     * the same chip and config) instead of re-running the profiling
     * pass. The fit is copied, so the source can be discarded; the
     * parallel sweep uses this to calibrate once and share the
     * result with every worker context.
     */
    void adoptPredictor(const core::ThermalPredictor &fitted,
                        double r_squared);

    /** Whether a fitted predictor exists (profiled or adopted). */
    bool hasPredictor() const { return predictor != nullptr; }

    const floorplan::Chip &chip() const { return chipRef; }
    const SimConfig &config() const { return cfg; }
    const thermal::ThermalModel &thermalModel() const { return tm; }
    const power::PowerModel &powerModel() const { return pm; }
    const vreg::VrDesign &design() const { return vrDesign; }
    const vreg::RegulatorNetwork &network(int domain) const;
    const pdn::DomainPdn &domainPdn(int domain) const;

  private:
    const floorplan::Chip &chipRef;
    SimConfig cfg;
    vreg::VrDesign vrDesign;
    thermal::ThermalModel tm;
    power::PowerModel pm;
    std::vector<vreg::RegulatorNetwork> networks;  //!< per domain
    std::vector<std::unique_ptr<pdn::DomainPdn>> pdns;

    std::unique_ptr<core::ThermalPredictor> predictor;
    double predictorR2 = 0.0;

    /** chip VR index -> (domain, local index). */
    std::vector<std::pair<int, int>> vrLocal;

    /**
     * Content fingerprints of the immutable per-instance inputs,
     * computed once in the constructor: every cache key below is a
     * cheap combination of these with per-run inputs.
     */
    cache::Fingerprint chipFp;
    cache::Fingerprint cfgFp;

    /** cfg.cacheDir, else $TG_CACHE_DIR, else "" (disk tier off). */
    std::string cacheDirResolved;

    /** Whether whole-RunResult memoization applies (see SimConfig). */
    bool memoActive() const;

    /** Full-tuple key of one runMixed invocation. */
    cache::Fingerprint
    runKey(const std::vector<const workload::BenchmarkProfile *>
               &per_core,
           const std::string &label, core::PolicyKind policy,
           const RecordOptions &opts) const;

    void calibrateThetas();

    /**
     * The state and stages of one runMixed() call (defined in
     * simulation.cc): prepare, then per epoch decide and advance
     * frames while noise windows queue, then finish.
     */
    struct Run;

    /**
     * Per-domain reusable buffers of the noise sampler. The
     * logic/memory base-current split depends only on the block-power
     * vector, so it is cached and keyed by `powerStamp`: repeated
     * windows against the same power (the emergency ground-truth loop,
     * multiple samples in one frame) skip the recompute. One scratch
     * per domain also makes the per-sample fan-out across domains
     * race-free without locks.
     *
     * `queue` holds built-but-unsolved windows back-to-back (window q
     * at offset q * cycles * nodeCount): each window is synthesised
     * at its scheduled frame, against that frame's block power, and
     * drains through the PDN's lockstep transientWindowBatch() later.
     * The queue rides across epochs whose decision left the domain's
     * active set unchanged, so rarely-gating policies fill maximally
     * wide lanes; `solved` counts the leading windows already solved
     * by an early per-domain flush (a set change solves them under
     * the outgoing factorisation first). `results` receives one
     * NoiseResult per queued window and survives until the global
     * reduction.
     */
    struct NoiseScratch
    {
        std::uint64_t stamp = 0;          //!< powerStamp of the split
        std::vector<Watts> pLogic;        //!< domain logic power
        std::vector<Watts> pMem;          //!< domain memory power
        std::vector<Amperes> baseLogic;   //!< node currents, logic
        std::vector<Amperes> baseMem;     //!< node currents, memory
        std::vector<double> mult;         //!< cycle multipliers
        std::vector<Amperes> queue;       //!< queued window buffers
        std::vector<pdn::DomainPdn::WindowSpec> specs; //!< batch views
        std::vector<pdn::NoiseResult> results; //!< per-window results
        std::size_t solved = 0; //!< windows already solved (flushes)
    };

    /** One queued noise sample (possibly from an earlier epoch). */
    struct QueuedNoiseSample
    {
        double timeUs = 0.0; //!< scheduled frame time [us] (traces)
        bool faulted = false; //!< scheduling epoch had active faults
    };

    /**
     * Reusable buffers of the per-epoch/per-frame kernel, so the
     * steady-state run loop performs no heap allocation: every vector
     * reaches its final size during the first epoch and is refilled
     * in place afterwards.
     */
    struct FrameScratch
    {
        std::vector<Celsius> blockT;    //!< per-block temperatures
        std::vector<Watts> leak;        //!< per-block leakage
        std::vector<Watts> blockPower;  //!< dynamic + leakage
        std::vector<Watts> meanPower;   //!< epoch provisioning power
        std::vector<Celsius> vrT;       //!< true per-VR temperatures
        std::vector<Celsius> vrSensor;  //!< sensed per-VR temperatures
        std::vector<Watts> nodalPower;  //!< thermal-grid power vector
        std::vector<double> thetas;     //!< per-local-VR theta slice
        core::DomainState st;           //!< reused decision inputs
    };

    FrameScratch fs;
    std::vector<NoiseScratch> noiseScratch;   //!< one per domain
    std::vector<QueuedNoiseSample> noiseQueue; //!< cross-epoch queue
    std::uint64_t powerStamp = 0;  //!< bumped per power recompute

    /**
     * Pool for the per-sample noise fan-out across domains; created
     * lazily on first use, only on threads that are not already pool
     * workers (sweep workers stay serial instead of oversubscribing).
     */
    std::unique_ptr<exec::ThreadPool> noisePool;

    /** cfg.noiseBatchWidth clamped to [1, kMaxWindowBatch]. */
    int noiseBatchWidth() const;
};

} // namespace sim
} // namespace tg

#endif // TG_SIM_SIMULATION_HH
