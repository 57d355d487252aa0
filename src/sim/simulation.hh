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

    /** The state and stages of one runMixed() call (defined in
     *  simulation.cc): prepare, decide and advance each epoch, finish. */
    struct Run;

    /**
     * One rank-2 noise window (pdn::DomainPdn::WindowLane): the logic
     * and memory node currents of the power it is built against and
     * the per-cycle multiplier of each. The window itself is never
     * written out; the lockstep kernel forms its currents.
     */
    struct NoiseLane
    {
        std::vector<Amperes> logic; //!< node currents, logic blocks
        std::vector<Amperes> mem;   //!< node currents, memory blocks
        std::vector<double> ml;     //!< per-cycle logic multipliers
        std::vector<double> mm;     //!< per-cycle memory multipliers
    };

    /**
     * Per-domain reusable buffers of the noise sampler; one scratch
     * per domain makes the fan-outs across domains race-free without
     * locks. `lanes` holds the pdn::DomainPdn::kMaxWindowBatch lanes
     * of one lockstep transientWindowBatch(), 2 * (nodes + cycles)
     * doubles each.
     * `results` holds one NoiseResult per lane in a truth check, and
     * one per sample in finish(), where the reduction reads them.
     */
    struct NoiseScratch
    {
        std::vector<Watts> pLogic;        //!< domain logic power
        std::vector<Watts> pMem;          //!< domain memory power
        std::vector<NoiseLane> lanes;     //!< one per lockstep lane
        std::vector<pdn::NoiseResult> results; //!< per lane / sample
        std::vector<int> set;             //!< a re-key's local VRs
    };

    /**
     * One domain's decision within an epoch: propose fills the
     * inputs and the proposal, verify the emergency truth of that
     * proposal, and commit replaces the proposal with the override
     * when the alert fires. One slot per domain lets every domain
     * propose before any commits and verify concurrently.
     */
    struct DecisionSlot
    {
        core::DomainState st;       //!< reused decision inputs
        std::vector<double> thetas; //!< per-local-VR theta slice
        core::PolicyToolkit kit;    //!< the domain's PDN and network
        core::Decision decision;    //!< proposal, then the final one
        bool truth = false;         //!< the proposal's emergency truth
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
        std::vector<DecisionSlot> slots; //!< one per domain
    };

    FrameScratch fs;
    std::vector<NoiseScratch> noiseScratch; //!< one per domain
};

} // namespace sim
} // namespace tg

#endif // TG_SIM_SIMULATION_HH
