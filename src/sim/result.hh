/**
 * @file
 * Per-run metrics and optional recorded series for the figure benches.
 */

#ifndef TG_SIM_RESULT_HH
#define TG_SIM_RESULT_HH

#include <string>
#include <vector>

#include "common/units.hh"
#include "core/policy.hh"

namespace tg {

namespace fault {
class FaultScenario;
}

namespace exec {
class CancelToken;
}

namespace sim {

/** What extra data a run should record beyond the scalar metrics. */
struct RecordOptions
{
    /** Record per-frame total power and active-VR count (Fig. 6). */
    bool timeSeries = false;
    /** Track one VR's temperature and state (Fig. 8): chip VR id,
     *  or -1 for none. */
    int trackVr = -1;
    /** Capture the die heat map at the hottest frame (Fig. 12). */
    bool heatmap = false;
    /** Keep the per-cycle droop trace of the worst sample (Fig. 14). */
    bool noiseTrace = false;
    /** Override SimConfig::noiseSamples; <0 keeps the default and 0
     *  disables noise sampling entirely (thermal-only studies). */
    int noiseSamplesOverride = -1;
    /** Fault schedule to inject (nullptr or empty = clean run; the
     *  clean path is bit-identical to a run without this option).
     *  The scenario must outlive the run. */
    const fault::FaultScenario *faultScenario = nullptr;
    /**
     * Cooperative cancellation: when set, the run polls the token at
     * every decision epoch (and the sweep engine before every cell)
     * and aborts by throwing exec::CancelledError. Execution control
     * only — it never changes a completed run's bytes, so it is
     * excluded from the memoization fingerprint, and a cancelled run
     * publishes no partial artifacts (results are only stored after
     * the final epoch). The token must outlive the run.
     */
    const exec::CancelToken *cancel = nullptr;
};

/** Resilience accounting of a (possibly) fault-injected run. */
struct ResilienceStats
{
    /** Scheduled fault events in the scenario (0 = clean run). */
    long scheduledFaults = 0;
    /** Decision epochs during which at least one fault was active. */
    long faultedEpochs = 0;
    /** Governor decisions taken with a faulted regulator set. */
    long degradedDecisions = 0;
    /** Decisions where the minimum-supply floor raised the target. */
    long floorEngagements = 0;
    /** Decisions where even every surviving VR missed the floor. */
    long underSuppliedDecisions = 0;

    /** Sensor quarantine entries over the run. */
    long quarantineEvents = 0;
    /** Decision epochs with at least one sensor quarantined. */
    long quarantinedEpochs = 0;
    /** Peak simultaneous quarantined sensor count. */
    int peakQuarantined = 0;
    /** Seconds from first sensor-fault onset to first quarantine;
     *  negative when nothing was (or needed to be) detected. */
    Seconds detectionLatency = -1.0;

    /** True emergency alerts suppressed by an AlertMissed fault. */
    long alertsSuppressed = 0;
    /** Spurious alerts raised by an AlertSpurious fault. */
    long alertsInjected = 0;

    /** Emergency cycles split by whether any fault was active during
     *  the epoch they occurred in (thermal/noise cost attribution). */
    long emergencyCyclesFaulted = 0;
    long emergencyCyclesClean = 0;
};

/** Everything one simulated (benchmark, policy) run produces. */
struct RunResult
{
    std::string benchmark;
    core::PolicyKind policy{};

    // --- headline metrics (Figs. 9, 10, 11; Table 2) ---------------
    Celsius maxTmax = 0.0;      //!< temporal max of chip-wide Tmax
    std::string hottestSpot;    //!< where the temporal max occurred
    Celsius maxGradient = 0.0;  //!< temporal max thermal gradient
    double maxNoiseFrac = 0.0;  //!< max droop fraction of Vdd
    double emergencyFrac = 0.0; //!< fraction of cycles in emergency

    // --- efficiency metrics (Figs. 5/7, Section 6.3) ---------------
    Watts avgRegulatorLoss = 0.0; //!< time-avg total VR loss [W]
    double avgEta = 0.0;          //!< P_out-weighted conversion eff.
    double avgActiveVrs = 0.0;    //!< time-avg active VR count
    Watts meanPower = 0.0;        //!< time-avg chip load power [W]
    long overrideCount = 0;       //!< all-on emergency overrides

    // --- optional series --------------------------------------------
    std::vector<double> timeUs;       //!< frame timestamps [us]
    std::vector<double> totalPowerW;  //!< per-frame load power
    std::vector<double> activeVrs;    //!< per-frame active VR count

    std::vector<double> trackedVrTemp; //!< tracked VR T per frame
    std::vector<int> trackedVrOn;      //!< tracked VR state per frame

    std::vector<double> heatmap;  //!< row-major die grid [degC]
    int heatmapW = 0;
    int heatmapH = 0;
    double heatmapTimeUs = 0.0;   //!< when Tmax peaked

    std::vector<double> noiseTrace; //!< per-cycle droop fraction
    int noiseTraceDomain = -1;
    double noiseTraceTimeUs = 0.0;

    /** Per chip-VR activity rate (fraction of time on), Fig. 13. */
    std::vector<double> vrActivity;

    /** Per chip-VR wear-out damage (equivalent stress-seconds at
     *  the aging reference temperature; Section 7 discussion). */
    std::vector<double> vrAging;
    /** Max-over-mean aging damage: 1.0 = perfectly balanced wear. */
    double agingImbalance = 1.0;

    /** Fault-injection / graceful-degradation accounting. All zeros
     *  (and detectionLatency = -1) on a clean run. */
    ResilienceStats resilience;
};

} // namespace sim
} // namespace tg

#endif // TG_SIM_RESULT_HH
