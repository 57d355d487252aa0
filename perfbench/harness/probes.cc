/**
 * @file
 * Per-layer probes of the traced run. Each probe times calls into one
 * module's public functions on a small fixed input, so a layer's
 * number moves only when that layer's code does:
 *
 *   sim      Simulation::run at jobs 1 and jobs nproc, noise on/off
 *   power    demand -> activity -> PowerTrace for one benchmark
 *   thermal  ThermalModel::advance (one POWER8 step)
 *   core     Governor::decide per policy
 *   pdn      DomainPdn::transientWindowBatch and setActive
 *   exec     parallelForOn over 16 domains on an nproc pool
 *   cache    encode/decodeRunResult, ArtifactStore::get, DiskTier
 *   shard    frame encode + FrameParser + decode of one CellMsg
 *
 * Metrics the workload itself measured (from its own load) are kept;
 * the probes fill the rest, so every traced run reports every name.
 */

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <numeric>

#include "cache/disk.hh"
#include "cache/serialize.hh"
#include "cache/store.hh"
#include "common/exec.hh"
#include "core/governor.hh"
#include "perfbench.hh"
#include "power/trace.hh"
#include "serve/protocol.hh"
#include "shard/protocol.hh"
#include "sim/simulation.hh"
#include "uarch/core_model.hh"
#include "workload/demand.hh"
#include "workload/profile.hh"

namespace tg {
namespace perfbench {

namespace {

/**
 * Median over `batches` of the mean per-call time of `calls` calls
 * [us]. Batching keeps clock reads out of sub-microsecond timings.
 */
template <class Fn>
double
perCallUs(int batches, int calls, Fn &&fn)
{
    std::vector<double> us;
    for (int b = 0; b < batches; ++b) {
        const auto t0 = Clock::now();
        for (int i = 0; i < calls; ++i)
            fn(i);
        us.push_back(secondsSince(t0) * 1e6 / calls);
    }
    return median(us);
}

/** Median wall time of `reps` calls [ms]. */
template <class Fn>
double
medianMs(int reps, Fn &&fn)
{
    std::vector<double> v;
    for (int r = 0; r < reps; ++r) {
        const auto t0 = Clock::now();
        fn();
        v.push_back(secondsSince(t0) * 1e3);
    }
    return median(v);
}

void
setIfAbsent(Metrics &m, const std::string &name, double value,
            const std::string &unit)
{
    if (!m.has(name))
        m.set(name, value, unit);
}

/** fft at the workload's sampling, jobs 1 vs nproc, noise on and off. */
void
probeSim(Context &ctx, const ProbeInputs &in, sim::Simulation &serial)
{
    Span span("probe.sim");
    const auto &fft = workload::profileByName("fft");
    const std::string uni =
        ctx.universe(in.paperSampling ? "run-paper" : "grid-default");
    const int reps = in.paperSampling || ctx.opt.smoke ? 1 : 3;
    std::unique_ptr<sim::Simulation> wide;

    sim::RecordOptions quiet;
    quiet.noiseSamplesOverride = 0;
    serial.run(fft, core::PolicyKind::AllOn, quiet); // warm the trace

    std::map<core::PolicyKind, double> jobs1;
    for (auto p : paperPolicies()) {
        jobs1[p] = medianMs(reps, [&] {
            Span s("sim.Simulation::run.jobs1");
            ctx.verifier->check(uni, cellKey("fft", p),
                                resultDigest(serial.run(fft, p)));
        });
        double jobsN = 0.0;
        if (auto it = in.jobsNMs.find(p); it != in.jobsNMs.end()) {
            jobsN = it->second;
        } else {
            if (!wide) {
                wide = std::make_unique<sim::Simulation>(ctx.chip, *in.cfg);
                wide->run(fft, core::PolicyKind::AllOn, quiet);
            }
            jobsN = medianMs(reps, [&] {
                Span s("sim.Simulation::run.jobsN");
                ctx.verifier->check(uni, cellKey("fft", p),
                                    resultDigest(wide->run(fft, p)));
            });
        }
        ctx.layer.set("sim.run_jobs1_ms." + policySlug(p), jobs1[p], "ms");
        ctx.layer.set("sim.run_scaling." + policySlug(p), jobs1[p] / jobsN, "x");
    }
    const double frameMs = medianMs(3, [&] {
        Span s("sim.Simulation::run.noise_off");
        serial.run(fft, core::PolicyKind::AllOn, quiet);
    });
    ctx.layer.set("sim.frame_loop_ms", frameMs, "ms");
    ctx.layer.set("sim.noise_share",
                  1.0 - frameMs / jobs1[core::PolicyKind::AllOn], "ratio");
    setIfAbsent(ctx.layer, "pdn.vt_excess_ms",
                jobs1[core::PolicyKind::PracVT] -
                    jobs1[core::PolicyKind::AllOn],
                "ms");
    if (!ctx.layer.has("pdn.factor_hit_ratio")) {
        std::uint64_t hits = 0, misses = 0;
        for (const sim::Simulation *s : {&serial, wide.get()}) {
            if (!s)
                continue;
            for (std::size_t d = 0; d < s->chip().plan.domains().size(); ++d) {
                hits += s->domainPdn(static_cast<int>(d)).factorCacheHits();
                misses += s->domainPdn(static_cast<int>(d)).factorCacheMisses();
            }
        }
        ctx.layer.set("pdn.factor_hit_ratio",
                      static_cast<double>(hits) /
                          static_cast<double>(std::max<std::uint64_t>(
                              1, hits + misses)),
                      "ratio");
    }
}

/** A mini sweep (paper benchmarks x AllOn/PracVT) at jobs = nproc. */
void
probeSweep(Context &ctx, const ProbeInputs &in)
{
    Span span("probe.sweep");
    sim::Simulation s(ctx.chip, *in.cfg);
    const auto benches = paperBenchmarks(ctx.opt.smoke);
    const auto &policies = paperPolicies();
    SweepPass pass = timedSweep(s, benches, policies, ctx.nproc, nullptr);
    const std::string uni =
        ctx.universe(in.paperSampling ? "run-paper" : "grid-default");
    for (std::size_t c = 0; c < pass.results.size(); ++c)
        ctx.verifier->check(uni,
                            cellKey(benches[c / policies.size()],
                                    policies[c % policies.size()]),
                            resultDigest(pass.results[c]));
    ctx.layer.set("sim.cell_ms_p50", quantile(pass.cellMs, 0.5), "ms");
    ctx.layer.set("sim.cell_ms_p90", quantile(pass.cellMs, 0.9), "ms");
    ctx.layer.set("sim.sweep_busy_frac", pass.busyFrac, "ratio");
    ctx.layer.set("sim.sweep_tail_s", pass.tailS, "s");
    ctx.layer.set("sim.sweep_parallelism", pass.parallelism, "x");
}

/** Power, thermal, governor and PDN probes on one POWER8 domain. */
void
probeModels(Context &ctx, const ProbeInputs &in, sim::Simulation &s)
{
    const floorplan::Chip &chip = ctx.chip;
    const auto &fft = workload::profileByName("fft");
    const int batches = ctx.opt.smoke ? 2 : 5;

    // power / workload / uarch: one benchmark's trace pipeline.
    const std::vector<const workload::BenchmarkProfile *> perCore(
        static_cast<std::size_t>(chip.params.cores), &fft);
    const Seconds dt = s.thermalModel().step();
    const int fpe = std::max(
        1, static_cast<int>(std::round(in.cfg->decisionInterval / dt)));
    power::PowerTrace trace;
    ctx.layer.set("power.trace_build_ms", medianMs(batches, [&] {
                      Span sp("power.PowerTrace");
                      const auto demand =
                          workload::generateMixedDemandTrace(perCore, 42, dt);
                      const auto activity =
                          uarch::buildActivityTrace(chip, perCore, demand);
                      trace = power::PowerTrace(s.powerModel(), activity, fpe);
                  }),
                  "ms");
    const std::vector<Watts> blockPower(trace.frame(0),
                                        trace.frame(0) + trace.blocks());

    // thermal: one implicit step of the full RC network.
    const thermal::ThermalModel &tm = s.thermalModel();
    std::vector<Celsius> temps = tm.uniformState(60.0);
    const std::vector<Watts> nodal = tm.powerVector(
        blockPower, std::vector<Watts>(chip.plan.vrs().size(), 0.05));
    {
        Span sp("thermal.ThermalModel::advance");
        ctx.layer.set("thermal.advance_us",
                      perCallUs(batches, 200,
                                [&](int) { tm.advance(temps, nodal); }),
                      "us");
    }

    // core: one gating decision for domain 0 under each policy.
    const auto &dom = chip.plan.domains()[0];
    const pdn::DomainPdn &domPdn = s.domainPdn(0);
    const vreg::RegulatorNetwork &net = s.network(0);
    std::vector<double> thetas;
    for (int v : dom.vrs)
        thetas.push_back(s.thermalPredictor().theta(v));
    core::DomainState st;
    st.domain = 0;
    st.demandNow = s.powerModel().domainCurrent(blockPower, 0);
    st.demandNext = st.demandNow * 1.1;
    st.didt = fft.didtActivity;
    for (std::size_t l = 0; l < dom.vrs.size(); ++l) {
        st.vrTemps.push_back(tm.vrTemp(temps, dom.vrs[l]) + 0.2 * l);
        st.vrLossNow.push_back(0.05);
    }
    const int non = net.requiredActive(st.demandNext);
    st.vrLossNextPerActive = net.evaluate(st.demandNext, non).plossTotal / non;
    st.nodeCurrents = domPdn.nodeCurrents(blockPower);
    core::PolicyToolkit kit;
    kit.pdn = &domPdn;
    kit.network = &net;
    kit.thetas = &thetas;
    for (auto kind : core::allPolicyKinds()) {
        Span sp("core.Governor::decide");
        core::Governor governor(
            kind, static_cast<int>(chip.plan.domains().size()));
        ctx.layer.set("core.decide_us." + policySlug(kind),
                      perCallUs(batches, 50,
                                [&](int i) {
                                    st.decision = i;
                                    governor.decide(st, kit, false);
                                }),
                      "us");
    }

    // pdn: the lockstep transient kernel at the default batch width,
    // then active-set switches that hit and miss the factor cache.
    pdn::DomainPdn own(chip, 0, s.design(), in.cfg->pdnParams);
    std::vector<int> all(static_cast<std::size_t>(own.vrCount()));
    std::iota(all.begin(), all.end(), 0);
    own.setActive(all);
    const std::vector<Amperes> base = own.nodeCurrents(blockPower);
    const std::size_t n = base.size();
    const int width = in.cfg->noiseBatchWidth;
    struct Shape
    {
        const char *name;
        sim::SimConfig cfg;
    };
    for (const Shape &shape :
         {Shape{"paper", paperConfig(ctx.opt.smoke, 1)},
          Shape{"default", defaultConfig(ctx.opt.smoke, 1)}}) {
        const std::size_t cycles =
            static_cast<std::size_t>(shape.cfg.noiseCyclesTotal);
        std::vector<std::vector<Amperes>> windows(
            static_cast<std::size_t>(width), std::vector<Amperes>(cycles * n));
        std::vector<pdn::DomainPdn::WindowSpec> specs;
        for (int w = 0; w < width; ++w) {
            auto &win = windows[static_cast<std::size_t>(w)];
            for (std::size_t c = 0; c < cycles; ++c) {
                const double m = 1.0 + 0.5 * static_cast<double>((c / 64 + w) % 2);
                for (std::size_t j = 0; j < n; ++j)
                    win[c * n + j] = base[j] * m;
            }
            specs.push_back({win.data(), n});
        }
        std::vector<pdn::NoiseResult> out(static_cast<std::size_t>(width));
        Span sp("pdn.DomainPdn::transientWindowBatch");
        const double callMs = medianMs(ctx.opt.smoke ? 2 : 9, [&] {
            own.transientWindowBatch(specs.data(), width, cycles,
                                     shape.cfg.noiseWarmupCycles, false,
                                     out.data());
        });
        ctx.layer.set(std::string("pdn.window_cycles_per_s.") + shape.name,
                      static_cast<double>(width) * static_cast<double>(cycles) /
                          (callMs / 1e3),
                      "cycles/s");
    }

    Rng rng(0x5e7ac71fu);
    std::vector<std::vector<int>> sets;
    while (sets.size() < 12) {
        std::vector<int> pick = all;
        rng.shuffle(pick);
        pick.resize(2 + rng.below(all.size() - 2));
        std::sort(pick.begin(), pick.end());
        if (std::find(sets.begin(), sets.end(), pick) == sets.end())
            sets.push_back(pick);
    }
    {
        Span sp("pdn.DomainPdn::setActive.miss");
        std::vector<double> us;
        for (const auto &set : sets) {
            own.clearFactorCache();
            const auto t0 = Clock::now();
            own.setActive(set);
            us.push_back(secondsSince(t0) * 1e6);
        }
        ctx.layer.set("pdn.setactive_miss_us", median(us), "us");
    }
    {
        Span sp("pdn.DomainPdn::setActive.hit");
        own.setActive(sets[0]);
        own.setActive(sets[1]);
        ctx.layer.set("pdn.setactive_hit_us",
                      perCallUs(batches, 100,
                                [&](int i) { own.setActive(sets[i % 2]); }),
                      "us");
    }
}

/** exec, cache and shard probes on a representative served result. */
void
probeInfrastructure(Context &ctx)
{
    const int batches = ctx.opt.smoke ? 2 : 5;
    {
        Span sp("exec.parallelForOn");
        exec::ThreadPool pool(ctx.nproc);
        std::atomic<int> sink{0};
        ctx.layer.set("exec.fanout_us",
                      perCallUs(batches, 100,
                                [&](int) {
                                    exec::parallelForOn(
                                        pool, 16, [&](int, std::size_t) {
                                            sink.fetch_add(
                                                1, std::memory_order_relaxed);
                                        });
                                }),
                      "us");
    }

    // The payload: a served-style thermal-only run with a tracked VR.
    sim::Simulation s(ctx.chip, defaultConfig(ctx.opt.smoke, 1));
    ServeTuple t{"fft", core::PolicyKind::AllOn, 0};
    sim::RecordOptions opts;
    opts.trackVr = t.trackVr;
    opts.noiseSamplesOverride = 0;
    const sim::RunResult r =
        s.run(workload::profileByName(t.benchmark), t.policy, opts);
    ctx.verifier->check(ctx.universe("serve-mixed"), t.key(), resultDigest(r));
    const std::vector<std::uint8_t> bytes = cache::encodeRunResult(r);

    {
        Span sp("cache.encodeRunResult");
        ctx.layer.set("cache.encode_us", perCallUs(batches, 200, [&](int) {
                          cache::encodeRunResult(r);
                      }),
                      "us");
    }
    {
        Span sp("cache.decodeRunResult");
        sim::RunResult back;
        ctx.layer.set("cache.decode_us", perCallUs(batches, 200, [&](int) {
                          cache::decodeRunResult(bytes.data(), bytes.size(),
                                                 back);
                      }),
                      "us");
    }
    cache::ArtifactStore store;
    {
        Span sp("cache.ArtifactStore::get");
        const auto shared = std::make_shared<const sim::RunResult>(r);
        for (std::uint64_t i = 0; i < 64; ++i)
            store.put<sim::RunResult>(cache::ArtifactKind::RunResult,
                                      cache::Fingerprint{i, 7}, shared,
                                      bytes.size());
        ctx.layer.set("cache.store_get_us",
                      perCallUs(batches, 1000,
                                [&](int i) {
                                    store.get<sim::RunResult>(
                                        cache::ArtifactKind::RunResult,
                                        cache::Fingerprint{
                                            static_cast<std::uint64_t>(i % 64),
                                            7});
                                }),
                      "us");
    }
    {
        Span sp("cache.DiskTier");
        const std::string dir = ctx.opt.workDir + "/disk-probe";
        std::filesystem::remove_all(dir);
        cache::DiskTier disk(dir, &store);
        const int files = ctx.opt.smoke ? 4 : 20;
        std::vector<double> save, load;
        std::vector<std::uint8_t> payload;
        bool ok = true;
        for (int i = 0; i < files; ++i) {
            const cache::Fingerprint key{0xd15cull, static_cast<std::uint64_t>(i)};
            auto t0 = Clock::now();
            ok &= disk.save(cache::ArtifactKind::RunResult, key, bytes,
                            "perfbench");
            save.push_back(secondsSince(t0) * 1e3);
            t0 = Clock::now();
            ok &= disk.load(cache::ArtifactKind::RunResult, key, payload);
            load.push_back(secondsSince(t0) * 1e3);
            ok &= payload == bytes;
        }
        ctx.verifier->record(ok, "disk tier round trip");
        ctx.layer.set("cache.disk_save_ms", median(save), "ms");
        ctx.layer.set("cache.disk_load_ms", median(load), "ms");
        std::filesystem::remove_all(dir);
    }
    {
        Span sp("shard.frame_roundtrip");
        serve::CellMsg cell;
        cell.cell = 7;
        cell.result = bytes;
        bool ok = true;
        ctx.layer.set(
            "shard.frame_roundtrip_us",
            perCallUs(batches, 100,
                      [&](int) {
                          const auto frame = shard::encodeFrame(
                              shard::FrameType::ServeCell,
                              serve::encodeCell(cell));
                          shard::FrameParser parser;
                          parser.feed(frame.data(), frame.size());
                          shard::Frame f;
                          serve::CellMsg back;
                          ok &= parser.next(f) ==
                                    shard::FrameParser::Status::Frame &&
                                serve::decodeCell(f.payload, back) &&
                                back.result == bytes;
                      }),
            "us");
        ctx.verifier->record(ok, "CellMsg frame round trip");
    }
}

} // namespace

void
runLayerProbes(Context &ctx, const ProbeInputs &in)
{
    Span span("probes");
    // Peak memory of the workload itself, before the probes add theirs.
    ctx.e2e.set("peak_rss_mb", peakRssMb(), "MB");
    if (!ctx.layer.has("sim.ctor_s")) {
        SetupTimes times;
        setupBlock(ctx, *in.cfg, times);
        ctx.layer.set("sim.ctor_s", median(times.ctor), "s");
        ctx.layer.set("sim.calibrate_s", median(times.calib), "s");
    }

    sim::SimConfig serialCfg = *in.cfg;
    serialCfg.jobs = 1;
    sim::Simulation serial(ctx.chip, serialCfg);
    serial.thermalPredictor();

    probeSim(ctx, in, serial);
    if (!ctx.layer.has("sim.sweep_busy_frac"))
        probeSweep(ctx, in);
    probeModels(ctx, in, serial);
    probeInfrastructure(ctx);
    if (!ctx.layer.has("serve.exec_ms"))
        runServeProbe(ctx);
}

} // namespace perfbench
} // namespace tg
