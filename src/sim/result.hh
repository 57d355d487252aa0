/**
 * @file
 * Per-run metrics and optional recorded series for the figure benches.
 */

#ifndef TG_SIM_RESULT_HH
#define TG_SIM_RESULT_HH

#include <string>
#include <vector>

#include "common/fields.hh"
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
     * every decision epoch and between the batches of its noise solve
     * (and the sweep engine before every cell), and aborts by
     * throwing exec::CancelledError. Execution control
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

/** ResilienceStats' members in wire order (common/fields.hh). */
inline constexpr auto kResilienceStatsFields = std::tuple{
    fields::field("scheduledFaults", &ResilienceStats::scheduledFaults),
    fields::field("faultedEpochs", &ResilienceStats::faultedEpochs),
    fields::field("degradedDecisions", &ResilienceStats::degradedDecisions),
    fields::field("floorEngagements", &ResilienceStats::floorEngagements),
    fields::field("underSuppliedDecisions",
                  &ResilienceStats::underSuppliedDecisions),
    fields::field("quarantineEvents", &ResilienceStats::quarantineEvents),
    fields::field("quarantinedEpochs", &ResilienceStats::quarantinedEpochs),
    fields::field("peakQuarantined", &ResilienceStats::peakQuarantined),
    fields::field("detectionLatency", &ResilienceStats::detectionLatency),
    fields::field("alertsSuppressed", &ResilienceStats::alertsSuppressed),
    fields::field("alertsInjected", &ResilienceStats::alertsInjected),
    fields::field("emergencyCyclesFaulted",
                  &ResilienceStats::emergencyCyclesFaulted),
    fields::field("emergencyCyclesClean",
                  &ResilienceStats::emergencyCyclesClean),
};
static_assert(fields::covers<ResilienceStats>(kResilienceStatsFields));

/** The list a RunResult's nested stats are walked through. */
constexpr const auto &fieldsOf(const ResilienceStats &)
{
    return kResilienceStatsFields;
}

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

/** RunResult's members in cache::encodeRunResult's wire order. */
inline constexpr auto kRunResultFields = std::tuple{
    fields::field("benchmark", &RunResult::benchmark),
    fields::field("policy", &RunResult::policy, core::PolicyKind::OffChip,
                  core::PolicyKind::PracVT),
    fields::field("maxTmax", &RunResult::maxTmax),
    fields::field("hottestSpot", &RunResult::hottestSpot),
    fields::field("maxGradient", &RunResult::maxGradient),
    fields::field("maxNoiseFrac", &RunResult::maxNoiseFrac),
    fields::field("emergencyFrac", &RunResult::emergencyFrac),
    fields::field("avgRegulatorLoss", &RunResult::avgRegulatorLoss),
    fields::field("avgEta", &RunResult::avgEta),
    fields::field("avgActiveVrs", &RunResult::avgActiveVrs),
    fields::field("meanPower", &RunResult::meanPower),
    fields::field("overrideCount", &RunResult::overrideCount),
    fields::field("timeUs", &RunResult::timeUs),
    fields::field("totalPowerW", &RunResult::totalPowerW),
    fields::field("activeVrs", &RunResult::activeVrs),
    fields::field("trackedVrTemp", &RunResult::trackedVrTemp),
    fields::field("trackedVrOn", &RunResult::trackedVrOn),
    fields::field("heatmap", &RunResult::heatmap),
    fields::field("heatmapW", &RunResult::heatmapW),
    fields::field("heatmapH", &RunResult::heatmapH),
    fields::field("heatmapTimeUs", &RunResult::heatmapTimeUs),
    fields::field("noiseTrace", &RunResult::noiseTrace),
    fields::field("noiseTraceDomain", &RunResult::noiseTraceDomain),
    fields::field("noiseTraceTimeUs", &RunResult::noiseTraceTimeUs),
    fields::field("vrActivity", &RunResult::vrActivity),
    fields::field("vrAging", &RunResult::vrAging),
    fields::field("agingImbalance", &RunResult::agingImbalance),
    fields::field("resilience", &RunResult::resilience),
};
static_assert(fields::covers<RunResult>(kRunResultFields));

constexpr const auto &fieldsOf(const RunResult &) { return kRunResultFields; }

} // namespace sim
} // namespace tg

#endif // TG_SIM_RESULT_HH
