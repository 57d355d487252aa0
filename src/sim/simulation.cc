#include "sim/simulation.hh"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <numeric>
#include <string>

#include "cache/disk.hh"
#include "cache/serialize.hh"
#include "cache/store.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "core/aging.hh"
#include "fault/injector.hh"
#include "sensors/emergency_predictor.hh"
#include "sensors/health.hh"
#include "sensors/thermal_sensor.hh"
#include "uarch/core_model.hh"
#include "vreg/design.hh"
#include "workload/cycles.hh"
#include "workload/demand.hh"

namespace tg {
namespace sim {

using core::PolicyKind;

namespace {

vreg::VrDesign
designFor(RegulatorChoice choice)
{
    switch (choice) {
      case RegulatorChoice::Fivr: return vreg::fivrDesign();
      case RegulatorChoice::Ldo: return vreg::ldoDesign();
    }
    panic("unknown regulator choice");
}

/** Cached thermal-predictor fit (keyed by chip x config). */
struct PredictorArtifact
{
    core::ThermalPredictor fitted;
    double r2 = 0.0;
};

std::size_t
powerTraceBytes(const power::PowerTrace &t)
{
    return sizeof(power::PowerTrace) +
           sizeof(Watts) * t.blocks() *
               (t.frames() +
                3 * static_cast<std::size_t>(t.epochs()));
}

} // namespace

Simulation::Simulation(const floorplan::Chip &chip, SimConfig cfg_in)
    : chipRef(chip), cfg(cfg_in), vrDesign(designFor(cfg.regulator)),
      tm(chip, cfg.thermalParams), pm(chip, cfg.powerParams)
{
    const auto &domains = chip.plan.domains();
    networks.reserve(domains.size());
    for (const auto &d : domains) {
        networks.emplace_back(vrDesign,
                              static_cast<int>(d.vrs.size()));
        networks.back().setVout(chip.params.vdd);
        pdns.push_back(std::make_unique<pdn::DomainPdn>(
            chip, d.id, vrDesign, cfg.pdnParams));
    }

    vrLocal.assign(chip.plan.vrs().size(), {-1, -1});
    for (const auto &d : domains)
        for (std::size_t l = 0; l < d.vrs.size(); ++l)
            vrLocal[static_cast<std::size_t>(d.vrs[l])] = {
                d.id, static_cast<int>(l)};
    for (std::size_t v = 0; v < vrLocal.size(); ++v)
        TG_ASSERT(vrLocal[v].first >= 0, "VR ", v, " has no domain");

    chipFp = cache::chipFingerprint(chip);
    cfgFp = cache::configFingerprint(cfg);
    if (!cfg.cacheDir.empty()) {
        cacheDirResolved = cfg.cacheDir;
    } else if (const char *dir = std::getenv("TG_CACHE_DIR")) {
        cacheDirResolved = dir;
    }
}

bool
Simulation::memoActive() const
{
    return cfg.memoizeResults && !cacheDirResolved.empty() &&
           cache::store().enabled();
}

cache::Fingerprint
Simulation::runKey(
    const std::vector<const workload::BenchmarkProfile *> &per_core,
    const std::string &label, PolicyKind policy,
    const RecordOptions &opts) const
{
    cache::Hasher h;
    h.str("tg.key.run-result.v1");
    h.fp(chipFp).fp(cfgFp);
    h.u64(static_cast<std::uint64_t>(policy)).str(label);
    h.u64(per_core.size());
    for (const auto *p : per_core)
        h.fp(cache::profileFingerprint(*p));
    h.fp(cache::recordOptionsFingerprint(opts));
    return h.digest();
}

const vreg::RegulatorNetwork &
Simulation::network(int domain) const
{
    return networks.at(static_cast<std::size_t>(domain));
}

const pdn::DomainPdn &
Simulation::domainPdn(int domain) const
{
    return *pdns.at(static_cast<std::size_t>(domain));
}

const core::ThermalPredictor &
Simulation::thermalPredictor()
{
    if (!predictor)
        calibrateThetas();
    return *predictor;
}

double
Simulation::predictorRSquared()
{
    if (!predictor)
        calibrateThetas();
    return predictorR2;
}

void
Simulation::adoptPredictor(const core::ThermalPredictor &fitted,
                           double r_squared)
{
    TG_ASSERT(fitted.size() ==
                  static_cast<int>(chipRef.plan.vrs().size()),
              "adopted predictor covers ", fitted.size(),
              " VRs, chip has ", chipRef.plan.vrs().size());
    predictor = std::make_unique<core::ThermalPredictor>(fitted);
    predictorR2 = r_squared;
}

void
Simulation::calibrateThetas()
{
    // Profiling pass (Section 6.3): drive the chip through large
    // demand steps under randomised gating so every regulator sees
    // on->off and off->on transitions, then fit deltaT = theta_i *
    // deltaP_i from epoch-to-epoch observations against the full RC
    // model. The first two epochs only settle the state, so fewer
    // than three record no sample and leave every theta at 0.
    TG_ASSERT(cfg.profilingEpochs >= 3, "profilingEpochs ",
              cfg.profilingEpochs, " is below 3: the fit gets no samples");
    // The pass is a pure function of (chip, config), so its fit is a
    // cacheable artifact: sibling contexts of a sweep — and any later
    // Simulation with the same inputs in this process — adopt the
    // cached fit instead of re-running the profiling epochs.
    const cache::Fingerprint fit_key = cache::Hasher{}
                                           .str("tg.key.predictor.v1")
                                           .fp(chipFp)
                                           .fp(cfgFp)
                                           .digest();
    if (auto hit = cache::store().get<PredictorArtifact>(
            cache::ArtifactKind::Predictor, fit_key)) {
        predictor =
            std::make_unique<core::ThermalPredictor>(hit->fitted);
        predictorR2 = hit->r2;
        return;
    }

    const auto &plan = chipRef.plan;
    const auto &domains = plan.domains();
    int n_vrs = static_cast<int>(plan.vrs().size());
    predictor = std::make_unique<core::ThermalPredictor>(n_vrs);

    Rng rng(mixSeed(cfg.seed, 0x7075u));
    Seconds dt = tm.step();
    int fpe = std::max(
        1, static_cast<int>(std::round(cfg.decisionInterval / dt)));

    // Mid-level uniform activity as the block-power background.
    std::vector<Watts> block_dyn(plan.blocks().size());
    auto block_power_at = [&](double u) {
        for (std::size_t b = 0; b < block_dyn.size(); ++b) {
            bool logic = floorplan::isLogicUnit(plan.blocks()[b].kind);
            block_dyn[b] = pm.peakDynamic(static_cast<int>(b)) *
                           (logic ? u : 0.5 * u);
        }
        return block_dyn;
    };

    auto temps = tm.uniformState(cfg.thermalParams.ambient + 12.0);
    std::vector<Watts> vr_loss(static_cast<std::size_t>(n_vrs), 0.0);
    std::vector<Watts> prev_loss;
    std::vector<Celsius> prev_temp;

    for (int e = 0; e < cfg.profilingEpochs; ++e) {
        // Demand square wave with jitter: big deltaP between epochs.
        double u = (e % 2 == 0 ? 0.35 : 0.8) + rng.uniform(-0.05, 0.05);
        auto block_power = block_power_at(u);

        std::fill(vr_loss.begin(), vr_loss.end(), 0.0);
        for (const auto &d : domains) {
            Amperes demand = pm.domainCurrent(block_power, d.id);
            auto &net = networks[static_cast<std::size_t>(d.id)];
            int non = net.requiredActive(demand);
            // Random subset of size non.
            std::vector<int> order(d.vrs.size());
            for (std::size_t i = 0; i < order.size(); ++i)
                order[i] = static_cast<int>(i);
            for (std::size_t i = order.size(); i-- > 1;)
                std::swap(order[i],
                          order[static_cast<std::size_t>(
                              rng.uniformInt(0, static_cast<int>(i)))]);
            auto op = net.evaluate(demand, non);
            for (int l = 0; l < non; ++l)
                vr_loss[static_cast<std::size_t>(
                    d.vrs[static_cast<std::size_t>(order[
                        static_cast<std::size_t>(l)])])] =
                    op.plossTotal / non;
        }

        auto pv = tm.powerVector(block_power, vr_loss);
        for (int f = 0; f < fpe; ++f)
            tm.advance(temps, pv);

        std::vector<Celsius> vr_temp(static_cast<std::size_t>(n_vrs));
        for (int v = 0; v < n_vrs; ++v)
            vr_temp[static_cast<std::size_t>(v)] = tm.vrTemp(temps, v);

        if (e >= 2) {
            // Skip the first epochs: the global state is still
            // settling and would contaminate the per-VR fit.
            for (int v = 0; v < n_vrs; ++v) {
                double d_p = vr_loss[static_cast<std::size_t>(v)] -
                             prev_loss[static_cast<std::size_t>(v)];
                double d_t = vr_temp[static_cast<std::size_t>(v)] -
                             prev_temp[static_cast<std::size_t>(v)];
                predictor->addSample(v, d_p, d_t);
            }
        }
        prev_loss = vr_loss;
        prev_temp = vr_temp;
    }
    predictor->fit();
    predictorR2 = predictor->rSquared();

    cache::store().put<PredictorArtifact>(
        cache::ArtifactKind::Predictor, fit_key,
        std::make_shared<const PredictorArtifact>(
            PredictorArtifact{*predictor, predictorR2}),
        sizeof(PredictorArtifact) +
            3 * sizeof(double) * static_cast<std::size_t>(n_vrs));
}

/**
 * One runMixed() call: the members are the run's state, the methods
 * its stages. The constructor prepares (power trace, sample
 * schedule, fault arming, thermal bootstrap); epoch() decides each
 * domain's active set (propose, verify, commit), then advances the
 * epoch's frames, recording each sample frame's block power;
 * finish() solves every sampled noise window and assembles the
 * result.
 *
 * The sampled windows feed only the reported noise metrics, so they
 * are solved in one place at the end. A window is built from its own
 * frame's power and its (epoch, sample, domain) RNG key and solved
 * under its epoch's committed set; lanes of a batch never interact,
 * and the reduction replays (sample, domain) order serially, so
 * solving at the end yields the bits of solving at the frame.
 */
struct Simulation::Run
{
    Run(Simulation &s,
        const std::vector<const workload::BenchmarkProfile *> &per_core,
        const std::string &label, PolicyKind p, const RecordOptions &o)
        : sim(s), plan(s.chipRef.plan), policy(p), opts(o),
          nDomains(static_cast<int>(plan.domains().size())),
          nVrs(static_cast<int>(plan.vrs().size())),
          runSeed(mixSeed(s.cfg.seed, hashString(label))),
          offChip(p == PolicyKind::OffChip),
          oracularInputs(core::isOracular(p) || p == PolicyKind::Naive ||
                         p == PolicyKind::AllOn),
          emergencyOverride(core::hasEmergencyOverride(p)),
          dt(s.tm.step()),
          fpe(std::max(1, static_cast<int>(std::round(
                              s.cfg.decisionInterval / dt)))),
          winCycles(static_cast<std::size_t>(s.cfg.noiseCyclesTotal)),
          width(static_cast<std::size_t>(std::clamp(
              s.cfg.noiseBatchWidth, 1, pdn::DomainPdn::kMaxWindowBatch))),
          governor(p, nDomains), aging(nVrs),
          sensorBank(nVrs, s.cfg.sensorParams, mixSeed(runSeed, 0x5eb5u)),
          emPredictor(s.cfg.predictorParams, mixSeed(runSeed, 0xe456u)),
          wma(static_cast<std::size_t>(nDomains), WmaForecaster(3)),
          vrLoss(static_cast<std::size_t>(nVrs), 0.0),
          activeSets(static_cast<std::size_t>(nDomains))
    {
        TG_ASSERT(opts.trackVr >= -1 && opts.trackVr < nVrs,
                  "trackVr ", opts.trackVr, " is not a VR of the chip");
        if (core::isThermallyAware(policy))
            sim.thermalPredictor();  // ensure thetas exist
        prepareWorkload(per_core);
        prepareSamples();
        // An empty (or absent) scenario takes the exact code paths of
        // a clean run: every fault hook is gated on `injector`, so
        // results stay bit-identical to a run without the option.
        if (opts.faultScenario && !opts.faultScenario->empty())
            armFaults(*opts.faultScenario);
        sim.fs.slots.resize(static_cast<std::size_t>(nDomains));

        // Thermal bootstrap: the steady state of frame 0 with every
        // VR on (off-chip: none), then the sensors' first reading.
        if (!offChip) {
            for (int d = 0; d < nDomains; ++d) {
                auto &set = activeSets[static_cast<std::size_t>(d)];
                set.resize(plan.domains()[static_cast<std::size_t>(d)]
                               .vrs.size());
                std::iota(set.begin(), set.end(), 0);
            }
        }
        temps = sim.tm.uniformState(sim.cfg.thermalParams.ambient + 12.0);
        settle(4);
        readVrTemps();
        sensorBank.record(0.0, sim.fs.vrT);
        framePowerInto(trace->frame(0), lastBlockPower);

        res.benchmark = label;
        res.policy = policy;
    }

    Simulation &sim;
    const floorplan::Floorplan &plan;
    const PolicyKind policy;
    const RecordOptions &opts;
    const int nDomains;
    const int nVrs;
    const std::uint64_t runSeed;
    const bool offChip;           //!< no regulators, no decisions
    const bool oracularInputs;    //!< exact temperatures and demand
    const bool emergencyOverride; //!< all-on override on emergencies
    const Seconds dt;
    const int fpe;                //!< frames per decision epoch
    const std::size_t winCycles;  //!< cycles per noise window
    const std::size_t width;      //!< lanes per lockstep batch

    // Prepared inputs.
    std::vector<double> didt;     //!< per-domain di/dt intensity
    std::shared_ptr<const power::PowerTrace> trace;
    std::size_t nFrames = 0;
    std::size_t nBlocks = 0;
    long nEpochs = 0;
    std::vector<std::vector<int>> samplesOfEpoch;
    std::vector<int> sampleFrame; //!< scheduled frame per sample

    // Control loop.
    core::Governor governor;
    core::AgingModel aging;
    sensors::ThermalSensorBank sensorBank;
    sensors::EmergencyPredictor emPredictor;
    std::vector<WmaForecaster> wma;
    std::unique_ptr<fault::FaultInjector> injector;
    std::unique_ptr<sensors::SensorHealthMonitor> health;

    // Physical state.
    std::vector<Watts> vrLoss;
    std::vector<std::vector<int>> activeSets;
    std::vector<Celsius> temps;
    std::vector<Watts> lastBlockPower;

    // Noise-sample records, solved by finish().
    std::vector<Watts> samplePower;       //!< block power, row per sample
    std::vector<std::uint64_t> epochSets; //!< committed sets, row per epoch
    std::vector<std::uint8_t> epochFaulted; //!< any fault active

    // Accumulators.
    RunResult res;
    RunningStats plossStats;
    RunningStats powerStats;
    RunningStats activeStats;
    double etaWeighted = 0.0;
    double etaWeight = 0.0;

    // --- Prepare ---------------------------------------------------------

    void prepareWorkload(
        const std::vector<const workload::BenchmarkProfile *> &per_core)
    {
        // Per-domain di/dt intensity: a core domain inherits its own
        // program's character; an L3 bank sees the dampened average.
        // Core domain ids coincide with core ids on the canned chips;
        // other core domains fall back to the average.
        double didt_avg = 0.0;
        for (const auto *p : per_core)
            didt_avg += p->didtActivity;
        didt_avg /= static_cast<double>(per_core.size());
        didt.resize(static_cast<std::size_t>(nDomains));
        for (std::size_t d = 0; d < didt.size(); ++d) {
            if (plan.domains()[d].kind != floorplan::DomainKind::Core)
                didt[d] = 0.5 * didt_avg;
            else if (d < per_core.size())
                didt[d] = per_core[d]->didtActivity;
            else
                didt[d] = didt_avg;
        }

        // The whole demand/activity/dynamic-power pipeline depends on
        // (chip, power model, step, frames-per-epoch, profiles, run
        // seed) but NOT on the policy, so its product — the PowerTrace
        // with its per-epoch mean/peak reductions — is a shared
        // artifact: a sweep builds it once per benchmark row and every
        // policy cell (and every worker context) reads the same
        // immutable trace. On a hit the demand and activity synthesis
        // is skipped entirely.
        cache::Hasher h;
        h.str("tg.key.power-trace.v1");
        h.fp(sim.chipFp)
            .fp(cache::powerParamsFingerprint(sim.cfg.powerParams))
            .f64(dt)
            .i64(fpe)
            .u64(runSeed);
        h.u64(per_core.size());
        for (const auto *p : per_core)
            h.fp(cache::profileFingerprint(*p));
        trace = cache::store().getOrBuild<power::PowerTrace>(
            cache::ArtifactKind::PowerTrace, h.digest(),
            [&] {
                auto demand = workload::generateMixedDemandTrace(
                    per_core, runSeed, dt);
                auto activity = uarch::buildActivityTrace(
                    sim.chipRef, per_core, demand);
                return std::make_shared<const power::PowerTrace>(
                    sim.pm, activity, fpe);
            },
            powerTraceBytes);
        nFrames = trace->frames();
        nEpochs = (static_cast<long>(nFrames) + fpe - 1) / fpe;
        nBlocks = plan.blocks().size();
    }

    void prepareSamples()
    {
        int n_samples = opts.noiseSamplesOverride >= 0
                            ? opts.noiseSamplesOverride
                            : sim.cfg.noiseSamples;
        if (offChip)
            n_samples = 0;
        samplesOfEpoch.resize(static_cast<std::size_t>(nEpochs));
        sampleFrame.resize(static_cast<std::size_t>(n_samples));
        for (int s = 0; s < n_samples; ++s) {
            int f = static_cast<int>(
                (s + 0.5) * static_cast<double>(nFrames) / n_samples);
            f = std::min<int>(f, static_cast<int>(nFrames) - 1);
            sampleFrame[static_cast<std::size_t>(s)] = f;
            samplesOfEpoch[static_cast<std::size_t>(f / fpe)].push_back(
                s);
        }

        samplePower.resize(static_cast<std::size_t>(n_samples) * nBlocks);
        epochSets.resize(static_cast<std::size_t>(nEpochs * nDomains));
        epochFaulted.resize(static_cast<std::size_t>(nEpochs));

        // Noise windows are independent across domains (per-domain
        // PDN and NoiseScratch, RNG streams keyed by (run seed, epoch,
        // sample, domain)), so finish() fans them out across the
        // process pool. Sweep workers (already on a pool thread) run
        // it inline, so they resolve no width and print no TG_JOBS
        // warning.
        sim.noiseScratch.resize(static_cast<std::size_t>(nDomains));
        if (n_samples == 0)
            return;
        for (int d = 0; d < nDomains; ++d) {
            auto &sc = sim.noiseScratch[static_cast<std::size_t>(d)];
            const std::size_t n = static_cast<std::size_t>(
                sim.pdns[static_cast<std::size_t>(d)]->nodeCount());
            sc.lanes.resize(width);
            for (auto &lane : sc.lanes) {
                lane.logic.resize(n);
                lane.mem.resize(n);
                lane.ml.resize(winCycles);
                lane.mm.resize(winCycles);
            }
            sc.results.resize(
                std::max(static_cast<std::size_t>(n_samples), width));
        }
        if (sim.noiseJobs == 0 && nDomains > 1 &&
            exec::ThreadPool::workerIndex() < 0)
            sim.noiseJobs = exec::resolveJobs(sim.cfg.jobs);
    }

    void armFaults(const fault::FaultScenario &scenario)
    {
        std::vector<int> vr_domain(sim.vrLocal.size());
        for (std::size_t v = 0; v < sim.vrLocal.size(); ++v)
            vr_domain[v] = sim.vrLocal[v].first;
        injector = std::make_unique<fault::FaultInjector>(
            scenario, std::move(vr_domain), nVrs, runSeed);
        std::vector<std::pair<double, double>> positions;
        positions.reserve(plan.vrs().size());
        for (const auto &site : plan.vrs())
            positions.emplace_back(site.rect.cx(), site.rect.cy());
        health = std::make_unique<sensors::SensorHealthMonitor>(
            std::move(positions), sim.cfg.healthParams);
    }

    /**
     * Fixed-point iterations of the steady state at frame 0's power
     * under the current active sets: leakage follows temperature,
     * temperature follows leakage and conversion loss. Nominal losses
     * only — a derated VR's extra heat enters with the frames.
     */
    void settle(int iterations)
    {
        auto &fs = sim.fs;
        for (int it = 0; it < iterations; ++it) {
            framePowerInto(trace->frame(0), fs.blockPower);
            std::fill(vrLoss.begin(), vrLoss.end(), 0.0);
            for (int d = 0; d < nDomains; ++d) {
                const auto &set = activeSets[static_cast<std::size_t>(d)];
                if (set.empty())
                    continue;
                Amperes i_d = sim.pm.domainCurrent(fs.blockPower, d);
                auto op = sim.networks[static_cast<std::size_t>(d)]
                              .evaluate(i_d, static_cast<int>(set.size()));
                shareLoss(d, op.plossTotal, nullptr);
            }
            sim.tm.powerVectorInto(fs.blockPower, vrLoss, fs.nodalPower);
            temps = sim.tm.steadyState(fs.nodalPower);
        }
    }

    // --- Decide ----------------------------------------------------------

    void epoch(long e)
    {
        const std::size_t f0 =
            static_cast<std::size_t>(e) * static_cast<std::size_t>(fpe);
        const std::size_t f1 =
            std::min(nFrames, f0 + static_cast<std::size_t>(fpe));
        const Seconds t = static_cast<double>(f0) * dt;

        // Fault state advances at decision granularity and stays
        // fixed for the whole epoch.
        if (injector) {
            injector->advanceTo(t);
            epochFaulted[static_cast<std::size_t>(e)] =
                injector->anyActive();
            if (epochFaulted[static_cast<std::size_t>(e)])
                ++res.resilience.faultedEpochs;
        }
        if (!offChip)
            decide(e, t, static_cast<double>(f1 - f0) * dt);
        for (std::size_t f = f0; f < f1; ++f)
            advanceFrame(e, f);
    }

    void decide(long e, Seconds t, Seconds span)
    {
        auto &fs = sim.fs;
        auto &rs = res.resilience;

        // Epoch provisioning power: the trace's blended mean/peak row
        // (oracular policies provision n_on for the epoch's demand
        // *excursions*, not just its mean) plus leakage at the
        // current temperatures.
        framePowerInto(trace->epochDynamic(e), fs.meanPower);

        readVrTemps();
        sensorBank.readInto(t, fs.vrSensor);
        if (injector) {
            // Corrupt what the control loop observes, then let the
            // health monitor quarantine and substitute. Ground truth
            // (fs.vrT, the thermal model) is untouched.
            injector->corruptSensors(t, e, fs.vrSensor);
            health->filter(t, fs.vrSensor);
            int qn = health->quarantinedCount();
            if (qn > 0)
                ++rs.quarantinedEpochs;
            rs.peakQuarantined = std::max(rs.peakQuarantined, qn);
            if (rs.detectionLatency < 0.0 && qn > 0) {
                // First quarantine: latency from the earliest
                // still-active fault on a quarantined sensor.
                for (int v = 0; v < nVrs; ++v) {
                    if (!health->quarantined(v))
                        continue;
                    Seconds onset = injector->sensorFaultOnset(v);
                    if (onset >= 0.0 && t >= onset) {
                        rs.detectionLatency = t - onset;
                        break;
                    }
                }
            }
        }
        // Propose serially, verify the proposals' emergency truth on
        // the pool, commit serially in domain order. Neither verify
        // nor a later proposal reads what a commit writes: policies
        // are stateless, the governor's counters are sums, the alert
        // draws are keyed by (domain, decision) and (decision, event),
        // and a verify task touches only its own domain's PDN and
        // scratch.
        const bool verify =
            emergencyOverride &&
            !samplesOfEpoch[static_cast<std::size_t>(e)].empty();
        for (int d = 0; d < nDomains; ++d)
            propose(d, e);
        if (verify)
            forEachDomain([&](int d) { verifyDomain(d, e); });
        for (int d = 0; d < nDomains; ++d)
            commit(d, e, span, verify);
        res.overrideCount = governor.overrideCount();

        // Policy-consistent warm start: the ROI is entered from
        // preceding execution under the same gating policy, so
        // re-derive the initial thermal state from the first
        // decision's configuration instead of the all-on bootstrap
        // state (otherwise every policy would inherit the all-on
        // maximum).
        if (e == 0) {
            settle(3);
            framePowerInto(trace->frame(0), lastBlockPower);
        }
    }

    /** Domain d's inputs and its decision without override. */
    void propose(int d, long e)
    {
        auto &fs = sim.fs;
        const std::size_t ud = static_cast<std::size_t>(d);
        const auto &dom = plan.domains()[ud];
        auto &net = sim.networks[ud];
        auto &pdn = *sim.pdns[ud];
        auto &slot = fs.slots[ud];

        Amperes demand_now = sim.pm.domainCurrent(lastBlockPower, d);
        Amperes true_next = sim.pm.domainCurrent(fs.meanPower, d);
        wma[ud].observe(demand_now);
        Amperes wma_next = wma[ud].predict();

        core::DomainState &st = slot.st;
        st.domain = d;
        st.decision = e;
        st.demandNow = demand_now;
        st.demandNext = oracularInputs
                            ? true_next
                            : std::max(wma_next, demand_now) *
                                  (1.0 + sim.cfg.practicalDemandMargin);
        st.didt = didt[ud];
        st.headroomVrs =
            oracularInputs ? 0 : sim.cfg.practicalHeadroomVrs;

        st.vrTemps.resize(dom.vrs.size());
        st.vrLossNow.resize(dom.vrs.size());
        for (std::size_t l = 0; l < dom.vrs.size(); ++l) {
            std::size_t v = static_cast<std::size_t>(dom.vrs[l]);
            st.vrTemps[l] = oracularInputs ? fs.vrT[v] : fs.vrSensor[v];
            st.vrLossNow[l] = vrLoss[v];
        }
        // Regulator-fault masks (the slot is reused, so the clean path
        // must leave them empty).
        if (injector && injector->anyVrFault()) {
            st.vrUnavailable.resize(dom.vrs.size());
            st.vrForcedOn.resize(dom.vrs.size());
            for (std::size_t l = 0; l < dom.vrs.size(); ++l) {
                int v = dom.vrs[l];
                st.vrUnavailable[l] = injector->vrFailed(v) ? 1 : 0;
                st.vrForcedOn[l] = injector->vrStuckOn(v) ? 1 : 0;
            }
        } else {
            st.vrUnavailable.clear();
            st.vrForcedOn.clear();
        }
        int non_next = net.requiredActive(st.demandNext);
        auto op_next = net.evaluate(st.demandNext, non_next);
        st.vrLossNextPerActive = op_next.plossTotal / non_next;

        pdn.nodeCurrentsInto(oracularInputs ? fs.meanPower
                                            : lastBlockPower,
                             st.nodeCurrents);

        if (sim.predictor) {
            slot.thetas.resize(dom.vrs.size());
            for (std::size_t l = 0; l < dom.vrs.size(); ++l)
                slot.thetas[l] = sim.predictor->theta(dom.vrs[l]);
        } else {
            slot.thetas.clear();
        }
        slot.kit.pdn = &pdn;
        slot.kit.network = &net;
        slot.kit.thetas = &slot.thetas;

        slot.decision = governor.decide(st, slot.kit, false);
    }

    /**
     * Ground truth: would domain d's proposal suffer an emergency
     * this epoch? Touches only domain d's PDN and scratch, so domains
     * verify concurrently.
     */
    void verifyDomain(int d, long e)
    {
        auto &slot = sim.fs.slots[static_cast<std::size_t>(d)];
        if (slot.decision.overridden)
            return;
        rekey(d, maskOf(slot.decision.active));
        slot.truth = epochEmergencyTruth(d, e, sim.fs.meanPower);
    }

    /**
     * Alert on a verified proposal's truth (the override when it
     * fires), then install domain d's final active set and record it
     * for the epoch's noise samples.
     */
    void commit(int d, long e, Seconds span, bool verified)
    {
        const std::size_t ud = static_cast<std::size_t>(d);
        auto &slot = sim.fs.slots[ud];
        if (verified && !slot.decision.overridden) {
            bool alert = policy == PolicyKind::OracVT
                             ? slot.truth
                             : emPredictor.predict(d, e, slot.truth);
            if (injector)
                alert = injector->perturbAlert(
                    d, e, alert, &res.resilience.alertsSuppressed,
                    &res.resilience.alertsInjected);
            if (alert)
                slot.decision = governor.decide(slot.st, slot.kit, true);
        }

        const auto &active = slot.decision.active;
        activeSets[ud] = active;
        epochSets[static_cast<std::size_t>(e * nDomains + d)] =
            maskOf(active);
        governor.recordActivity(
            d, active,
            static_cast<int>(plan.domains()[ud].vrs.size()), span);
    }

    /** Bitmask of local VR indices (a DomainPdn keeps <= 64 VRs). */
    static std::uint64_t maskOf(const std::vector<int> &set)
    {
        std::uint64_t mask = 0;
        for (int l : set)
            mask |= std::uint64_t{1} << l;
        return mask;
    }

    /**
     * Key domain d's PDN to the active set `mask`: the one place a
     * PDN's set changes. An unchanged set keeps the factorisation.
     */
    void rekey(int d, std::uint64_t mask)
    {
        const std::size_t ud = static_cast<std::size_t>(d);
        auto &pdn = *sim.pdns[ud];
        if (mask == maskOf(pdn.active()))
            return;
        auto &set = sim.noiseScratch[ud].set;
        set.clear();
        for (; mask != 0; mask &= mask - 1)
            set.push_back(std::countr_zero(mask));
        pdn.setActive(set);
    }

    // --- Advance ---------------------------------------------------------

    void advanceFrame(long e, std::size_t f)
    {
        auto &fs = sim.fs;
        const auto &tm = sim.tm;
        const Seconds now = static_cast<double>(f) * dt;
        framePowerInto(trace->frame(f), fs.blockPower);
        Watts total_load = 0.0;
        for (Watts p : fs.blockPower)
            total_load += p;
        lastBlockPower = fs.blockPower;
        powerStats.add(total_load);

        // Conversion loss of every domain with active VRs (off-chip:
        // none). A derated VR dissipates a multiple of its nominal
        // share: the physics sees the extra heat even though the
        // governor does not.
        std::fill(vrLoss.begin(), vrLoss.end(), 0.0);
        int active_total = 0;
        Watts ploss_total = 0.0;
        for (int d = 0; d < nDomains; ++d) {
            const auto &set = activeSets[static_cast<std::size_t>(d)];
            if (set.empty())
                continue;
            Amperes i_d = sim.pm.domainCurrent(fs.blockPower, d);
            auto op = sim.networks[static_cast<std::size_t>(d)].evaluate(
                i_d, static_cast<int>(set.size()));
            shareLoss(d, op.plossTotal, injector.get());
            ploss_total += op.plossTotal;
            active_total += static_cast<int>(set.size());
            etaWeighted += op.eta * i_d;
            etaWeight += i_d;
        }
        plossStats.add(ploss_total);
        activeStats.add(active_total);

        tm.powerVectorInto(fs.blockPower, vrLoss, fs.nodalPower);
        tm.advance(temps, fs.nodalPower);

        Celsius tmax = tm.maxDieTemp(temps);
        Celsius grad = tm.gradient(temps);
        if (tmax > res.maxTmax) {
            res.maxTmax = tmax;
            auto hs = tm.hottest(temps);
            if (hs.isVr) {
                res.hottestSpot =
                    plan.vrs()[static_cast<std::size_t>(hs.vr)].name;
            } else {
                auto [cx, cy] = tm.cellCentre(hs.row, hs.col);
                int b = plan.blockAt(cx, cy);
                res.hottestSpot =
                    b >= 0
                        ? plan.blocks()[static_cast<std::size_t>(b)].name
                        : "?";
            }
            if (opts.heatmap) {
                res.heatmap = tm.dieGrid(temps);
                res.heatmapW = tm.params().gridW;
                res.heatmapH = tm.params().gridH;
                res.heatmapTimeUs = now * 1e6;
            }
        }
        res.maxGradient = std::max(res.maxGradient, grad);

        readVrTemps();
        sensorBank.record(now + dt, fs.vrT);
        // Wear-out accounting (Section 7): loss while active stresses
        // the regulator at a temperature-exponential rate.
        for (int v = 0; v < nVrs; ++v)
            aging.accumulate(v, fs.vrT[static_cast<std::size_t>(v)],
                             vrLoss[static_cast<std::size_t>(v)] > 0.0,
                             dt);

        if (opts.timeSeries) {
            res.timeUs.push_back((now + dt) * 1e6);
            res.totalPowerW.push_back(total_load);
            res.activeVrs.push_back(active_total);
        }
        if (opts.trackVr >= 0) {
            const std::size_t tv = static_cast<std::size_t>(opts.trackVr);
            auto [td, tl] = sim.vrLocal[tv];
            const auto &set = activeSets[static_cast<std::size_t>(td)];
            res.trackedVrTemp.push_back(fs.vrT[tv]);
            res.trackedVrOn.push_back(
                std::find(set.begin(), set.end(), tl) != set.end() ? 1
                                                                   : 0);
        }
        // The sampled windows are built and solved in finish(); their
        // frames only keep the power the windows are built from.
        for (int sample : samplesOfEpoch[static_cast<std::size_t>(e)])
            if (sampleFrame[static_cast<std::size_t>(sample)] ==
                static_cast<int>(f))
                std::copy(fs.blockPower.begin(), fs.blockPower.end(),
                          samplePower.data() +
                              static_cast<std::size_t>(sample) * nBlocks);
    }

    // --- Finish ----------------------------------------------------------

    /**
     * Solve every sampled window, then reduce. Each domain walks the
     * samples in order: up to `width` consecutive samples whose
     * epochs committed the same set form one lockstep batch, so the
     * PDN re-keys only where the recorded set changes. Domains walk
     * concurrently and check for cancellation between batches. The
     * reduction runs serially in (sample, domain) order: the
     * max/sum/compare sequence of evaluating each window at its frame.
     */
    void solveNoise()
    {
        const std::size_t n = sampleFrame.size();
        if (n == 0)
            return;
        forEachDomain([&](int d) {
            auto *out =
                sim.noiseScratch[static_cast<std::size_t>(d)].results.data();
            for (std::size_t s0 = 0, cnt = 0; s0 < n; s0 += cnt) {
                if (opts.cancel)
                    opts.cancel->throwIfCancelled();
                cnt = 1;
                while (cnt < width && s0 + cnt < n &&
                       sampleSet(s0 + cnt, d) == sampleSet(s0, d))
                    ++cnt;
                solveSamples(d, s0, cnt, false, out + s0);
            }
        });

        long emergency_cycles = 0;
        long analysed_cycles = 0;
        double best_trace = -1.0;
        std::size_t traced = n;
        for (std::size_t s = 0; s < n; ++s) {
            int em_max = 0;
            int analysed = 0;
            for (int d = 0; d < nDomains; ++d) {
                const auto &w =
                    sim.noiseScratch[static_cast<std::size_t>(d)].results[s];
                double max_noise = w.maxNoiseFrac;
                if (emergencyOverride) {
                    // Even when the *predictive* path missed (PracVT's
                    // 90% sensitivity), the runtime emergency detector
                    // fires on the first threshold crossing and snaps
                    // the domain to all-on within the droop, capping
                    // the excursion shortly past the threshold.
                    double cap = sim.cfg.pdnParams.emergencyFrac * 1.32;
                    if (max_noise > cap)
                        max_noise = cap;
                }
                res.maxNoiseFrac = std::max(res.maxNoiseFrac, max_noise);
                em_max = std::max(em_max, w.emergencyCycles);
                analysed = w.analysedCycles;
                if (opts.noiseTrace && max_noise > best_trace) {
                    best_trace = max_noise;
                    traced = s;
                    res.noiseTraceDomain = d;
                }
            }
            emergency_cycles += em_max;
            analysed_cycles += analysed;
            // Attributed to the epoch the sample was scheduled in.
            const int e = sampleFrame[s] / fpe;
            if (injector)
                (epochFaulted[static_cast<std::size_t>(e)]
                     ? res.resilience.emergencyCyclesFaulted
                     : res.resilience.emergencyCyclesClean) += em_max;
        }
        if (analysed_cycles > 0)
            res.emergencyFrac = static_cast<double>(emergency_cycles) /
                                static_cast<double>(analysed_cycles);

        // The deepest window's droop trace: that one window solved
        // again with its trace kept (a lane's trace is the scalar one).
        if (traced < n) {
            pdn::NoiseResult w;
            solveSamples(res.noiseTraceDomain, traced, 1, true, &w);
            res.noiseTrace = std::move(w.trace);
            res.noiseTraceTimeUs =
                static_cast<double>(sampleFrame[traced]) * dt * 1e6;
        }
    }

    /**
     * Build domain d's lanes of samples [s0, s0 + count), whose
     * epochs committed one set, and solve them under that set into
     * `out`.
     */
    void solveSamples(int d, std::size_t s0, std::size_t count,
                      bool keep_trace, pdn::NoiseResult *out)
    {
        auto &lanes = sim.noiseScratch[static_cast<std::size_t>(d)].lanes;
        for (std::size_t j = 0; j < count; ++j) {
            const std::size_t s = s0 + j;
            projectBaseCurrents(d, samplePower.data() + s * nBlocks,
                                lanes[j]);
            drawScales(d, sampleFrame[s] / fpe, static_cast<int>(s),
                       lanes[j]);
        }
        rekey(d, sampleSet(s0, d));
        solveLanes(d, count, keep_trace, out);
    }

    /** Domain d's committed set in the epoch of sample s. */
    std::uint64_t sampleSet(std::size_t s, int d) const
    {
        const int e = sampleFrame[s] / fpe;
        return epochSets[static_cast<std::size_t>(e * nDomains + d)];
    }

    RunResult finish()
    {
        solveNoise();

        res.avgRegulatorLoss = plossStats.mean();
        res.meanPower = powerStats.mean();
        res.avgActiveVrs = activeStats.mean();
        res.avgEta = offChip ? 1.0
                             : (etaWeight > 0.0 ? etaWeighted / etaWeight
                                                : 0.0);
        if (injector) {
            auto &rs = res.resilience;
            rs.scheduledFaults =
                static_cast<long>(opts.faultScenario->events().size());
            rs.degradedDecisions = governor.degradedDecisionCount();
            rs.floorEngagements = governor.floorEngagementCount();
            rs.underSuppliedDecisions = governor.underSuppliedCount();
            rs.quarantineEvents = health->quarantineEvents();
        }
        res.vrAging = aging.damages();
        res.agingImbalance = aging.imbalance();
        res.vrActivity.resize(static_cast<std::size_t>(nVrs), 0.0);
        if (!offChip)
            for (int v = 0; v < nVrs; ++v) {
                auto [d, l] = sim.vrLocal[static_cast<std::size_t>(v)];
                res.vrActivity[static_cast<std::size_t>(v)] =
                    governor.activityRate(d, l);
            }
        return std::move(res);
    }

    // --- Shared steps ----------------------------------------------------

    /** Trace row `dyn` plus leakage at the current temperatures. */
    void framePowerInto(const Watts *dyn, std::vector<Watts> &out)
    {
        auto &fs = sim.fs;
        sim.tm.blockTempsInto(temps, fs.blockT);
        sim.pm.leakageFrameInto(fs.blockT, fs.leak);
        out.resize(nBlocks);
        for (std::size_t b = 0; b < nBlocks; ++b)
            out[b] = dyn[b] + fs.leak[b];
    }

    /**
     * Spread domain d's conversion loss evenly over its active VRs,
     * scaled by `derate`'s per-VR loss multipliers when given.
     */
    void shareLoss(int d, Watts ploss, const fault::FaultInjector *derate)
    {
        const auto &set = activeSets[static_cast<std::size_t>(d)];
        const auto &vrs = plan.domains()[static_cast<std::size_t>(d)].vrs;
        const Watts share = ploss / set.size();
        for (int l : set) {
            const int v = vrs[static_cast<std::size_t>(l)];
            vrLoss[static_cast<std::size_t>(v)] =
                derate ? share * derate->vrLossMultiplier(v) : share;
        }
    }

    /** True per-VR temperatures into sim.fs.vrT. */
    void readVrTemps()
    {
        auto &vr_t = sim.fs.vrT;
        vr_t.resize(static_cast<std::size_t>(nVrs));
        for (int v = 0; v < nVrs; ++v)
            vr_t[static_cast<std::size_t>(v)] = sim.tm.vrTemp(temps, v);
    }

    /** f(d) for every domain, fanned out sim.noiseJobs wide. */
    template <typename F>
    void forEachDomain(F &&f)
    {
        exec::parallelFor(static_cast<std::size_t>(nDomains),
                          sim.noiseJobs, [&](int, std::size_t d) {
                              f(static_cast<int>(d));
                          });
    }

    /** Domain d's logic and memory shares of `block_power` (they
     *  fluctuate with different depths), projected onto its PDN nodes:
     *  the base currents of a window built against that power. */
    void projectBaseCurrents(int d, const Watts *block_power,
                             NoiseLane &lane) const
    {
        const std::size_t ud = static_cast<std::size_t>(d);
        const auto &pdn = *sim.pdns[ud];
        auto &sc = sim.noiseScratch[ud];
        sc.pLogic.assign(nBlocks, 0.0);
        sc.pMem.assign(nBlocks, 0.0);
        for (int b : plan.domains()[ud].blocks) {
            std::size_t ub = static_cast<std::size_t>(b);
            if (floorplan::isLogicUnit(plan.blocks()[ub].kind))
                sc.pLogic[ub] = block_power[ub];
            else
                sc.pMem[ub] = block_power[ub];
        }
        pdn.nodeCurrentsInto(sc.pLogic, lane.logic);
        pdn.nodeCurrentsInto(sc.pMem, lane.mem);
    }

    /**
     * Draw the per-cycle multipliers of noise window (epoch, sample)
     * for domain d into `lane`: ml scales the logic currents, and the
     * memory currents swing less, by mm = 1 + 0.35 (ml - 1). The
     * waveform is seeded independently of the policy so all policies
     * see the same workload. Touches only domain d's scratch, so
     * domains may draw concurrently.
     */
    void drawScales(int d, long e, int sample, NoiseLane &lane) const
    {
        Rng rng(mixSeed(mixSeed(runSeed, static_cast<std::uint64_t>(
                                             e * 1315423911ll)),
                        mixSeed(static_cast<std::uint64_t>(sample),
                                static_cast<std::uint64_t>(d))));
        workload::synthesizeCycleMultipliersInto(
            didt[static_cast<std::size_t>(d)], winCycles, rng, lane.ml);
        lane.mm.resize(winCycles);
        for (std::size_t c = 0; c < winCycles; ++c)
            lane.mm[c] = 1.0 + 0.35 * (lane.ml[c] - 1.0);
    }

    /** Solve the first `count` lanes of domain d's scratch into `out`. */
    void solveLanes(int d, std::size_t count, bool keep_trace,
                    pdn::NoiseResult *out) const
    {
        std::array<pdn::DomainPdn::WindowLane,
                   pdn::DomainPdn::kMaxWindowBatch> specs;
        const std::size_t ud = static_cast<std::size_t>(d);
        const auto &lanes = sim.noiseScratch[ud].lanes;
        for (std::size_t j = 0; j < count; ++j)
            specs[j] = {lanes[j].logic.data(), lanes[j].mem.data(),
                        lanes[j].ml.data(), lanes[j].mm.data()};
        sim.pdns[ud]->transientWindowBatch(
            specs.data(), static_cast<int>(count), winCycles,
            sim.cfg.noiseWarmupCycles, keep_trace, out);
    }

    /**
     * Ground truth for the emergency-override path: would domain d's
     * current active set suffer a voltage emergency in any of epoch
     * e's sample windows? Every window is built against the epoch's
     * provisioning power, so each lane's base currents are projected
     * once; windows advance `width` at a time with an early exit
     * between batches — the OR over windows is what the per-window
     * early-exit loop computed, bit-identically.
     */
    bool epochEmergencyTruth(int d, long e,
                             const std::vector<Watts> &block_power) const
    {
        auto &sc = sim.noiseScratch[static_cast<std::size_t>(d)];
        const auto &samples = samplesOfEpoch[static_cast<std::size_t>(e)];
        for (std::size_t j = 0; j < std::min(width, samples.size()); ++j)
            projectBaseCurrents(d, block_power.data(), sc.lanes[j]);
        for (std::size_t q0 = 0; q0 < samples.size(); q0 += width) {
            const std::size_t cnt = std::min(width, samples.size() - q0);
            for (std::size_t j = 0; j < cnt; ++j)
                drawScales(d, e, samples[q0 + j], sc.lanes[j]);
            solveLanes(d, cnt, false, sc.results.data());
            for (std::size_t j = 0; j < cnt; ++j)
                if (sc.results[j].emergencyCycles > 0)
                    return true;
        }
        return false;
    }
};

RunResult
Simulation::run(const workload::BenchmarkProfile &profile,
                PolicyKind policy, RecordOptions opts)
{
    std::vector<const workload::BenchmarkProfile *> per_core(
        static_cast<std::size_t>(chipRef.params.cores), &profile);
    return runMixed(per_core, profile.name, policy, opts);
}

RunResult
Simulation::runMixed(
    const std::vector<const workload::BenchmarkProfile *> &per_core,
    const std::string &label, PolicyKind policy, RecordOptions opts)
{
    TG_ASSERT(static_cast<int>(per_core.size()) ==
                  chipRef.params.cores,
              "need one profile per core");

    // The full tuple (chip, config, profiles, policy, record options)
    // determines every bit of the result, so with memoization opted in
    // (a cache directory + memoizeResults) a warm query returns the
    // stored RunResult: first from the in-memory store, then from the
    // disk tier (verified + promoted into memory). A corrupt or
    // truncated disk entry is rejected and the run recomputes.
    const bool memo = memoActive();
    cache::Fingerprint memo_key{};
    if (memo) {
        memo_key = runKey(per_core, label, policy, opts);
        if (auto hit = cache::store().get<RunResult>(
                cache::ArtifactKind::RunResult, memo_key))
            return *hit;
        cache::DiskTier disk(cacheDirResolved);
        std::vector<std::uint8_t> payload;
        if (disk.load(cache::ArtifactKind::RunResult, memo_key,
                      payload)) {
            auto loaded = std::make_shared<RunResult>();
            if (cache::decodeRunResult(payload.data(), payload.size(),
                                       *loaded)) {
                cache::store().put<RunResult>(
                    cache::ArtifactKind::RunResult, memo_key,
                    std::shared_ptr<const RunResult>(loaded),
                    cache::runResultBytes(*loaded));
                return *loaded;
            }
        }
    }

    Run run(*this, per_core, label, policy, opts);
    for (long e = 0; e < run.nEpochs; ++e) {
        // Cancellation point: one check per decision epoch. Aborting
        // here publishes nothing, so a cancelled run leaves no
        // partial artifact, and the next run on this instance resets
        // every scratch buffer it could have dirtied.
        if (opts.cancel)
            opts.cancel->throwIfCancelled();
        run.epoch(e);
    }
    RunResult res = run.finish();

    if (memo) {
        cache::store().put<RunResult>(
            cache::ArtifactKind::RunResult, memo_key,
            std::make_shared<const RunResult>(res),
            cache::runResultBytes(res));
        cache::DiskTier disk(cacheDirResolved);
        disk.save(cache::ArtifactKind::RunResult, memo_key,
                  cache::encodeRunResult(res),
                  "tg run-result v1 " + label + " policy=" +
                      core::policyName(policy) +
                      " key=" + memo_key.hex());
    }
    return res;
}

} // namespace sim
} // namespace tg
