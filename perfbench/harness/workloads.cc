/**
 * @file
 * The three benchmark workloads and golden recording.
 *
 *  grid-default  the 14 x 8 evaluation grid through runSweepCells at
 *                jobs = nproc, default sampling, cold artifact store per
 *                pass, no memoization. Cross-cell fan-out and trace reuse
 *                along the policy axis; intra-run noise fan-out is
 *                bypassed because sweep workers run cells inline.
 *  run-paper     single runs on one warm Simulation at the paper's own
 *                sampling, AllOn and PracVT over a fixed benchmark set;
 *                intra-run noise fan-out is the only parallelism.
 *  serve-mixed   an in-process tg::serve daemon driven closed-loop by
 *                nproc clients: half memo hits (repeats), half novel
 *                thermal-only runs (memo miss + insert + disk write).
 *
 * Common metric definitions (every workload reports all of them):
 * a cell is one computed RunResult and a request is one result the
 * caller asked for (a sweep cell, a run, a served run). Hence
 * requests_per_s equals grid_cells_per_s except on serve-mixed, where
 * memo hits answer requests without computing a cell.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <numeric>
#include <thread>

#include "cache/store.hh"
#include "common/exec.hh"
#include "perfbench.hh"
#include "serve/client.hh"
#include "serve/server.hh"
#include "shard/worker.hh"
#include "sim/simulation.hh"
#include "sim/sweep.hh"
#include "workload/profile.hh"

namespace tg {
namespace perfbench {

namespace {

double
ms(Clock::time_point t0, Clock::time_point t1)
{
    return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

/** Hit ratio of one artifact kind between two store snapshots. */
double
hitRatio(const cache::StoreStats &a, const cache::StoreStats &b,
         cache::ArtifactKind kind)
{
    const auto &x = a.kind[static_cast<std::size_t>(kind)];
    const auto &y = b.kind[static_cast<std::size_t>(kind)];
    const double hits = static_cast<double>(y.hits - x.hits);
    const double misses = static_cast<double>(y.misses - x.misses);
    return hits + misses > 0 ? hits / (hits + misses) : 0.0;
}

/** Sum of PDN factor-cache hits and misses over a context's domains. */
void
addFactorCounters(const sim::Simulation &s, std::uint64_t &hits,
                  std::uint64_t &misses)
{
    for (std::size_t d = 0; d < s.chip().plan.domains().size(); ++d) {
        hits += s.domainPdn(static_cast<int>(d)).factorCacheHits();
        misses += s.domainPdn(static_cast<int>(d)).factorCacheMisses();
    }
}

void
setFactorRatio(Context &ctx, std::uint64_t hits, std::uint64_t misses)
{
    if (hits + misses > 0)
        ctx.layer.set("pdn.factor_hit_ratio",
                      static_cast<double>(hits) /
                          static_cast<double>(hits + misses),
                      "ratio");
}

/** Latency-style end-to-end metrics shared by every workload. */
void
setRequestMetrics(Context &ctx, double cellsPerS, double requestsPerS,
                  double p50Ms, double p90Ms, double allonMs, double pracvtMs)
{
    ctx.e2e.set("grid_cells_per_s", cellsPerS, "1/s");
    ctx.e2e.set("requests_per_s", requestsPerS, "1/s");
    ctx.e2e.set("request_p50_ms", p50Ms, "ms");
    ctx.e2e.set("request_p90_ms", p90Ms, "ms");
    ctx.e2e.set("allon_run_ms", allonMs, "ms");
    ctx.e2e.set("pracvt_run_ms", pracvtMs, "ms");
}

/**
 * AllOn and PracVT single runs on the warm set-up Simulation with
 * nothing else running, over the paper benchmark set. A round runs
 * every item once in seeded order. The caller spreads timed rounds
 * over the run, so a brief host slowdown sways few of the samples.
 */
class IdleRuns
{
  public:
    IdleRuns(Context &ctx, sim::Simulation &s, std::string uni, Rng &rng)
        : ctx(ctx), s(s), uni(std::move(uni)), rng(rng)
    {
        for (const auto &b : paperBenchmarks(ctx.opt.smoke))
            for (auto p : paperPolicies())
                items.push_back({b, p});
    }

    /** One round; an untimed one only warms the factor caches. */
    void
    round(bool timed)
    {
        Span span("idle_runs");
        const double cpu0 = processCpuSeconds();
        const auto start = Clock::now();
        rng.shuffle(items);
        for (const auto &[bench, policy] : items) {
            const auto t0 = Clock::now();
            sim::RunResult r;
            {
                Span call("sim.Simulation::run");
                r = s.run(workload::profileByName(bench), policy);
            }
            if (timed)
                times[policy].push_back(ms(t0, Clock::now()));
            ctx.verifier->check(uni, cellKey(bench, policy), resultDigest(r));
        }
        wallS += secondsSince(start);
        cpuS += processCpuSeconds() - cpu0;
    }

    /** Median run time of a policy over the timed rounds [ms]. */
    double medianMs(core::PolicyKind p) const { return median(times.at(p)); }

    /** Wall and process CPU time spent in rounds [s]. */
    double wallS = 0.0;
    double cpuS = 0.0;

  private:
    Context &ctx;
    sim::Simulation &s;
    const std::string uni;
    Rng &rng;
    std::vector<std::pair<std::string, core::PolicyKind>> items;
    std::map<core::PolicyKind, std::vector<double>> times;
};

/**
 * Whole passes until the next one would end further past `seconds`
 * than stopping now falls short of it.
 */
bool
anotherPass(Clock::time_point load0, int passes, double seconds)
{
    const double elapsed = secondsSince(load0);
    return elapsed + 0.5 * elapsed / passes < seconds;
}

/** Mean over benchmarks of (median PracVT - median AllOn) [ms]. */
double
vtExcess(const std::map<std::string, std::vector<double>> &allon,
         const std::map<std::string, std::vector<double>> &pracvt)
{
    double sum = 0.0;
    int n = 0;
    for (const auto &[bench, times] : allon) {
        auto it = pracvt.find(bench);
        if (it == pracvt.end())
            continue;
        sum += median(it->second) - median(times);
        ++n;
    }
    return n ? sum / n : 0.0;
}

} // namespace

int
setupReps(const Context &ctx)
{
    return ctx.opt.smoke ? 1 : 4;
}

std::unique_ptr<sim::Simulation>
coldSetup(const Context &ctx, const sim::SimConfig &cfg, SetupTimes &times)
{
    // The predictor fit is a cached artifact too: with the store off,
    // the repetition calibrates cold.
    const bool storeWasOn = cache::store().enabled();
    cache::store().setEnabled(false);
    std::unique_ptr<sim::Simulation> s;
    Span span("setup");
    const auto t0 = Clock::now();
    {
        Span call("sim.Simulation");
        s = std::make_unique<sim::Simulation>(ctx.chip, cfg);
    }
    const auto t1 = Clock::now();
    {
        Span call("sim.thermalPredictor");
        s->thermalPredictor();
    }
    times.ctor.push_back(std::chrono::duration<double>(t1 - t0).count());
    times.calib.push_back(secondsSince(t1));
    times.total.push_back(secondsSince(t0));
    cache::store().setEnabled(storeWasOn);
    return s;
}

SetupSampler::SetupSampler(std::function<void()> rep)
    : rep(std::move(rep)), lastEnd(Clock::now())
{
}

void
SetupSampler::atPause()
{
    if (secondsSince(lastEnd) < kGapS)
        return;
    const double cpu0 = processCpuSeconds();
    const auto t0 = Clock::now();
    rep();
    lastEnd = Clock::now();
    wallS += std::chrono::duration<double>(lastEnd - t0).count();
    cpuS += processCpuSeconds() - cpu0;
}

std::unique_ptr<sim::Simulation>
setupBlock(const Context &ctx, const sim::SimConfig &cfg, SetupTimes &times)
{
    std::unique_ptr<sim::Simulation> s;
    for (int rep = 0; rep < setupReps(ctx); ++rep) {
        s.reset();
        s = coldSetup(ctx, cfg, times);
    }
    return s;
}

void
reportSetup(Context &ctx, const SetupTimes &times)
{
    std::printf("setup_s reps:");
    for (double t : times.total)
        std::printf(" %.4f", t);
    std::printf("\n");
    ctx.e2e.set("setup_s", median(times.total), "s");
    if (!times.ctor.empty()) {
        ctx.layer.set("sim.ctor_s", median(times.ctor), "s");
        ctx.layer.set("sim.calibrate_s", median(times.calib), "s");
    }
}

SweepPass
timedSweep(sim::Simulation &s, const std::vector<std::string> &benches,
           const std::vector<core::PolicyKind> &policies, int jobs,
           sim::SweepContexts *contexts)
{
    const std::size_t nCells = benches.size() * policies.size();
    std::vector<std::size_t> cells(nCells);
    std::iota(cells.begin(), cells.end(), 0);
    SweepPass pass;
    pass.results.resize(nCells);
    pass.cellMs.resize(nCells);
    std::vector<Clock::time_point> emitAt(nCells);
    std::vector<int> emitWorker(nCells, 0);

    const std::uint64_t req =
        Tracer::instance().enabled() ? Tracer::instance().newId() : 0;
    Span span("sweep", req);
    const auto t0 = Clock::now();
    {
        Span call("sim.runSweepCells");
        sim::runSweepCells(
            s, benches, policies, cells, jobs, {},
            [&](std::size_t c, sim::RunResult &&r) {
                emitAt[c] = Clock::now();
                emitWorker[c] = std::max(0, exec::ThreadPool::workerIndex());
                pass.results[c] = std::move(r);
            },
            contexts);
    }
    pass.wallS = secondsSince(t0);

    // Cell host time is the gap between a worker's consecutive emits;
    // a worker's first cell also pays its context build. A worker is
    // taken as busy from the start to its last emit.
    std::map<int, std::vector<std::size_t>> byWorker;
    for (std::size_t c = 0; c < nCells; ++c)
        byWorker[emitWorker[c]].push_back(c);
    double busySum = 0.0, firstIdle = pass.wallS;
    for (auto &[worker, list] : byWorker) {
        std::sort(list.begin(), list.end(),
                  [&](auto x, auto y) { return emitAt[x] < emitAt[y]; });
        Clock::time_point prev = t0;
        for (std::size_t c : list) {
            pass.cellMs[c] = ms(prev, emitAt[c]);
            addSyntheticSpan("sweep.cell", span.id(), req, 1000 + worker,
                             prev, emitAt[c]);
            prev = emitAt[c];
        }
        const double last = ms(t0, prev) / 1e3;
        busySum += last;
        firstIdle = std::min(firstIdle, last);
    }
    pass.busyFrac =
        busySum / (static_cast<double>(byWorker.size()) * pass.wallS);
    pass.tailS = pass.wallS - firstIdle;
    pass.parallelism = std::accumulate(pass.cellMs.begin(), pass.cellMs.end(),
                                       0.0) /
                       1e3 / pass.wallS;
    return pass;
}

// --- grid-default ------------------------------------------------------------

void
runGridDefault(Context &ctx)
{
    const bool smoke = ctx.opt.smoke;
    const sim::SimConfig cfg = defaultConfig(smoke, ctx.nproc);
    SetupTimes setup;
    std::unique_ptr<sim::Simulation> warm = setupBlock(ctx, cfg, setup);
    sim::Simulation &simulation = *warm;
    SetupSampler pause([&] { coldSetup(ctx, cfg, setup); });

    // The seed orders the grid's rows, never its content, so every
    // seed computes the same cells against one golden set. Columns keep
    // the canonical policy order: the first cells of a row pay its
    // trace build, and that cost must land on the same policies for
    // every seed.
    Rng rng(ctx.opt.seed * 0x9e3779b97f4a7c15ull + 1);
    std::vector<std::string> benches = gridBenchmarks(smoke);
    const std::vector<core::PolicyKind> policies = gridPolicies(smoke);
    rng.shuffle(benches);
    const std::size_t nPol = policies.size();
    const std::size_t nCells = benches.size() * nPol;
    const std::string uni = ctx.universe("grid-default");

    std::vector<double> rates, p50s, p90s, busy, tails, parallel;
    std::map<std::string, std::vector<double>> allonBy, pracvtBy;
    std::vector<std::uint64_t> digests(nCells);
    std::uint64_t traceHits = 0, traceMisses = 0, fHits = 0, fMisses = 0;

    // Single idle runs: one untimed round first, then a timed round
    // after every pass, while the pass's traces are still in the store.
    IdleRuns idle(ctx, simulation, uni, rng);
    idle.round(false);

    int passes = 0;
    const double cpu0 = processCpuSeconds();
    const auto load0 = Clock::now();
    do {
        pause.atPause();
        cache::store().clear();
        const cache::StoreStats before = cache::store().stats();
        sim::SweepContexts contexts;
        SweepPass pass =
            timedSweep(simulation, benches, policies, ctx.nproc, &contexts);
        const cache::StoreStats after = cache::store().stats();
        rates.push_back(static_cast<double>(nCells) / pass.wallS);
        p50s.push_back(quantile(pass.cellMs, 0.5));
        p90s.push_back(quantile(pass.cellMs, 0.9));
        busy.push_back(pass.busyFrac);
        tails.push_back(pass.tailS);
        parallel.push_back(pass.parallelism);
        for (std::size_t c = 0; c < nCells; ++c) {
            const std::string &b = benches[c / nPol];
            if (policies[c % nPol] == core::PolicyKind::AllOn)
                allonBy[b].push_back(pass.cellMs[c]);
            else if (policies[c % nPol] == core::PolicyKind::PracVT)
                pracvtBy[b].push_back(pass.cellMs[c]);
        }
        const auto &bk = before.kind[0], &ak = after.kind[0];
        traceHits += ak.hits - bk.hits;
        traceMisses += ak.misses - bk.misses;
        for (const auto &sp : contexts.sims)
            if (sp)
                addFactorCounters(*sp, fHits, fMisses);

        Span verify("verify");
        for (std::size_t c = 0; c < nCells; ++c) {
            digests[c] = resultDigest(pass.results[c]);
            ctx.verifier->check(
                uni, cellKey(benches[c / nPol], policies[c % nPol]),
                digests[c]);
        }
        // The pass's contexts go first, so peak RSS stays the load's.
        contexts.sims.clear();
        idle.round(true);
    } while (anotherPass(load0, ++passes, ctx.opt.seconds));
    const double wallS = secondsSince(load0) - pause.wallS - idle.wallS;
    const double cpu = processCpuSeconds() - cpu0 - pause.cpuS - idle.cpuS;

    // Bit-identity across worker counts: a seeded subset recomputed on
    // a serial context must reproduce the jobs = nproc digests.
    {
        Span span("verify.jobs1");
        sim::SimConfig serialCfg = cfg;
        serialCfg.jobs = 1;
        sim::Simulation serial(ctx.chip, serialCfg);
        std::vector<std::size_t> subset(nCells);
        std::iota(subset.begin(), subset.end(), 0);
        rng.shuffle(subset);
        subset.resize(std::min<std::size_t>(subset.size(), smoke ? 2 : 6));
        sim::runSweepCells(serial, benches, policies, subset, 1, {},
                           [&](std::size_t c, sim::RunResult &&r) {
                               ctx.verifier->record(
                                   resultDigest(r) == digests[c],
                                   "grid cell " + std::to_string(c) +
                                       " differs between jobs 1 and jobs " +
                                       std::to_string(ctx.nproc));
                           });
    }

    // Per-pass quantiles, then the median over passes: one slow pass
    // moves a run's figure less than pooling every cell would.
    const double cellsPerS = median(rates);
    setRequestMetrics(ctx, cellsPerS, cellsPerS, median(p50s), median(p90s),
                      idle.medianMs(core::PolicyKind::AllOn),
                      idle.medianMs(core::PolicyKind::PracVT));
    std::printf("grid passes: %zu, cells/s per pass:", rates.size());
    for (double r : rates)
        std::printf(" %.3f", r);
    std::printf("\n");

    ctx.layer.set("sim.cpu_util", cpu / (wallS * ctx.nproc), "ratio");
    ctx.layer.set("sim.cell_ms_p50", median(p50s), "ms");
    ctx.layer.set("sim.cell_ms_p90", median(p90s), "ms");
    ctx.layer.set("sim.sweep_busy_frac", median(busy), "ratio");
    ctx.layer.set("sim.sweep_tail_s", median(tails), "s");
    ctx.layer.set("sim.sweep_parallelism", median(parallel), "x");
    ctx.layer.set("pdn.vt_excess_ms", vtExcess(allonBy, pracvtBy), "ms");
    if (traceHits + traceMisses > 0)
        ctx.layer.set("cache.trace_hit_ratio",
                      static_cast<double>(traceHits) /
                          static_cast<double>(traceHits + traceMisses),
                      "ratio");
    setFactorRatio(ctx, fHits, fMisses);

    warm.reset();
    setupBlock(ctx, cfg, setup);
    reportSetup(ctx, setup);

    if (ctx.opt.trace) {
        ProbeInputs in;
        in.cfg = &cfg;
        runLayerProbes(ctx, in);
    }
}

// --- run-paper ----------------------------------------------------------------

void
runRunPaper(Context &ctx)
{
    const bool smoke = ctx.opt.smoke;
    const sim::SimConfig cfg = paperConfig(smoke, ctx.nproc);
    SetupTimes setup;
    std::unique_ptr<sim::Simulation> warm = setupBlock(ctx, cfg, setup);
    sim::Simulation &simulation = *warm;
    SetupSampler pause([&] { coldSetup(ctx, cfg, setup); });
    const std::string uni = ctx.universe("run-paper");

    struct Item
    {
        std::string bench;
        core::PolicyKind policy;
    };
    std::vector<Item> items;
    for (const auto &b : paperBenchmarks(smoke))
        for (auto p : paperPolicies())
            items.push_back({b, p});

    // Warm the per-benchmark power traces and the PDN factor caches
    // with cheap noise-off runs, so timed runs see a warm Simulation.
    {
        Span span("warmup");
        sim::RecordOptions quiet;
        quiet.noiseSamplesOverride = 0;
        for (const Item &it : items)
            simulation.run(workload::profileByName(it.bench), it.policy, quiet);
    }

    Rng rng(ctx.opt.seed * 0x9e3779b97f4a7c15ull + 2);
    std::vector<double> runMs, allonMs, pracvtMs;
    std::map<std::string, std::vector<double>> allonBy, pracvtBy;
    std::uint64_t h0 = 0, m0 = 0, h1 = 0, m1 = 0;
    addFactorCounters(simulation, h0, m0);
    const cache::StoreStats before = cache::store().stats();

    // Whole passes only: every benchmark x policy runs equally often,
    // so the medians describe the same mix on every seed.
    int passes = 0;
    const double cpu0 = processCpuSeconds();
    const auto load0 = Clock::now();
    do {
        std::vector<Item> order = items;
        rng.shuffle(order);
        for (const Item &it : order) {
            pause.atPause();
            const std::uint64_t req =
                Tracer::instance().enabled() ? Tracer::instance().newId() : 0;
            Span span("run", req);
            const auto t0 = Clock::now();
            sim::RunResult r;
            {
                Span call("sim.Simulation::run");
                r = simulation.run(workload::profileByName(it.bench), it.policy);
            }
            const double m = ms(t0, Clock::now());
            runMs.push_back(m);
            if (it.policy == core::PolicyKind::AllOn) {
                allonMs.push_back(m);
                allonBy[it.bench].push_back(m);
            } else {
                pracvtMs.push_back(m);
                pracvtBy[it.bench].push_back(m);
            }
            Span verify("verify");
            ctx.verifier->check(uni, cellKey(it.bench, it.policy),
                                resultDigest(r));
        }
    } while (anotherPass(load0, ++passes, ctx.opt.seconds));
    const double wallS = secondsSince(load0) - pause.wallS;
    const double cpu = processCpuSeconds() - cpu0 - pause.cpuS;

    const double perS = static_cast<double>(runMs.size()) / wallS;
    setRequestMetrics(ctx, perS, perS, quantile(runMs, 0.5),
                      quantile(runMs, 0.9), median(allonMs), median(pracvtMs));

    ctx.layer.set("sim.cpu_util", cpu / (wallS * ctx.nproc), "ratio");
    ctx.layer.set("pdn.vt_excess_ms", vtExcess(allonBy, pracvtBy), "ms");
    ctx.layer.set("cache.trace_hit_ratio",
                  hitRatio(before, cache::store().stats(),
                           cache::ArtifactKind::PowerTrace),
                  "ratio");
    addFactorCounters(simulation, h1, m1);
    setFactorRatio(ctx, h1 - h0, m1 - m0);

    warm.reset();
    setupBlock(ctx, cfg, setup);
    reportSetup(ctx, setup);

    if (ctx.opt.trace) {
        ProbeInputs in;
        in.cfg = &cfg;
        in.paperSampling = true;
        for (auto p : paperPolicies())
            in.jobsNMs[p] = median(p == core::PolicyKind::AllOn
                                       ? allonBy["fft"]
                                       : pracvtBy["fft"]);
        runLayerProbes(ctx, in);
    }
}

// --- serve-mixed --------------------------------------------------------------

namespace {

/** The tuple whose run builds and calibrates the daemon's context. */
ServeTuple
setupTuple()
{
    return {"fft", core::PolicyKind::PracT, -1};
}

serve::RunMsg
runMsgFor(const std::vector<std::uint8_t> &setupBlob, const ServeTuple &t)
{
    serve::RunMsg m;
    m.setup = setupBlob;
    m.benchmark = t.benchmark;
    m.policy = static_cast<std::uint32_t>(t.policy);
    m.trackVr = t.trackVr;
    m.noiseSamplesOverride = 0; // thermal-only: the frame loop, no PDN
    return m;
}

/** An in-process daemon with a private socket and cache directory. */
struct Daemon
{
    std::unique_ptr<serve::Server> server;
    serve::Client control;
    std::vector<std::uint8_t> setupBlob;

    bool
    start(Context &ctx, const std::string &name, std::string *err)
    {
        namespace fs = std::filesystem;
        const std::string dir = ctx.opt.workDir + "/" + name;
        fs::remove_all(dir);
        fs::create_directories(dir);
        sim::SimConfig cfg = defaultConfig(ctx.opt.smoke, ctx.nproc);
        cfg.cacheDir = dir + "/cache";
        cfg.memoizeResults = true;
        setupBlob = shard::encodeBasicSetup(
            ctx.opt.smoke ? shard::ChipKind::Mini : shard::ChipKind::Power8,
            ctx.opt.smoke ? 2 : 0, cfg);
        serve::ServerOptions so;
        so.socketPath = dir + "/serve.sock";
        so.jobs = ctx.nproc;
        server = std::make_unique<serve::Server>(so);
        if (!server->start(err))
            return false;
        return control.connectWithRetry(so.socketPath, 10000, err);
    }

    /** One served run, verified against the serve-mixed goldens. */
    bool
    run(Context &ctx, serve::Client &client, const ServeTuple &t,
        std::uint64_t *digest, std::string *err)
    {
        sim::RunResult r;
        serve::DoneMsg done;
        const bool ok = client.run(runMsgFor(setupBlob, t), r, err, &done);
        if (!ok) {
            ctx.verifier->record(false, "serve " + t.key() + ": " + *err);
            return false;
        }
        const std::uint64_t d = resultDigest(r);
        if (digest)
            *digest = d;
        return ctx.verifier->check(ctx.universe("serve-mixed"), t.key(), d);
    }

    void
    stop()
    {
        control.close();
        if (server) {
            server->requestStop();
            server->wait();
            server.reset();
        }
    }

    ~Daemon() { stop(); }
};

struct ClientLog
{
    std::vector<double> latencyMs;
    std::vector<double> endS; //!< completion, seconds into the load
    std::vector<bool> novelAt;
    std::size_t repeats = 0;
    std::size_t novel = 0;
    /** Digest of each novel tuple this client had served (pool index). */
    std::vector<std::pair<std::size_t, std::uint64_t>> served;
    Clock::time_point end;
};

double
medianPing(serve::Client &c, int n)
{
    std::vector<double> us;
    for (int i = 0; i < n; ++i) {
        const auto t0 = Clock::now();
        std::string err;
        if (c.ping(&err))
            us.push_back(ms(t0, Clock::now()) * 1e3);
    }
    return median(us);
}

/** Serve-layer metrics from two stats snapshots around a load. */
void
setServeLayerMetrics(Metrics &out, const serve::StatsReplyMsg &s0,
                     const serve::StatsReplyMsg &s1, double wallS,
                     double meanLatencyMs, double pingUs,
                     std::size_t attempted)
{
    const double runs = static_cast<double>(s1.requestsRun - s0.requestsRun);
    const double execMs =
        runs > 0 ? static_cast<double>(s1.runMicros - s0.runMicros) / 1e3 / runs
                 : 0.0;
    const auto &k0 = s0.store.kind[static_cast<std::size_t>(
        cache::ArtifactKind::RunResult)];
    const auto &k1 = s1.store.kind[static_cast<std::size_t>(
        cache::ArtifactKind::RunResult)];
    const double hits = static_cast<double>(k1.hits - k0.hits);
    const double misses = static_cast<double>(k1.misses - k0.misses);
    out.set("serve.ping_rtt_us", pingUs, "us");
    out.set("serve.exec_ms", execMs, "ms");
    out.set("serve.queue_wait_ms",
                  meanLatencyMs - execMs - pingUs / 1e3, "ms");
    out.set("serve.busy_frac",
                  attempted ? static_cast<double>(s1.requestsBusy -
                                                  s0.requestsBusy) /
                                  static_cast<double>(attempted)
                            : 0.0,
                  "ratio");
    out.set("serve.exec_util",
                  static_cast<double>(s1.runMicros - s0.runMicros) / 1e6 /
                      wallS,
                  "ratio");
    out.set("serve.context_builds",
                  static_cast<double>(s1.contextsBuilt), "count");
    out.set("cache.memo_hit_ratio",
                  hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio");
    out.set("cache.disk_writes",
                  static_cast<double>(s1.store.diskWrites - s0.store.diskWrites),
                  "count");
    out.set("cache.evictions",
                  static_cast<double>(s1.store.evictions - s0.store.evictions),
                  "count");
    out.set("cache.trace_hit_ratio",
                  hitRatio(s0.store, s1.store, cache::ArtifactKind::PowerTrace),
                  "ratio");
}

/**
 * Memo hits must be exactly the planned repeats: every repeat names a
 * tuple this client already had answered, every novel tuple is new.
 */
void
checkMemoRatio(Context &ctx, const serve::StatsReplyMsg &s0,
               const serve::StatsReplyMsg &s1, std::size_t repeats,
               std::size_t total)
{
    const auto &k0 = s0.store.kind[static_cast<std::size_t>(
        cache::ArtifactKind::RunResult)];
    const auto &k1 = s1.store.kind[static_cast<std::size_t>(
        cache::ArtifactKind::RunResult)];
    const std::uint64_t hits = k1.hits - k0.hits;
    const std::uint64_t misses = k1.misses - k0.misses;
    ctx.verifier->record(hits == repeats && hits + misses == total,
                         "memo hits " + std::to_string(hits) + "/" +
                             std::to_string(hits + misses) +
                             " != planned repeats " + std::to_string(repeats) +
                             "/" + std::to_string(total));
}

} // namespace

void
runServeMixed(Context &ctx)
{
    const bool smoke = ctx.opt.smoke;
    std::string err;

    // Set-up: daemon start, first connection, and the first request,
    // which builds the warm context and calibrates its predictor, with
    // the artifact store off so the predictor is fitted cold. One block
    // before the load, whose last daemon serves it, and one after. A
    // restart between the short idle requests would sway their times,
    // so there are no set-ups at pauses here.
    Daemon daemon;
    SetupTimes setup;
    auto setupRep = [&]() {
        daemon.stop();
        cache::store().setEnabled(false);
        Span span("setup");
        const auto t0 = Clock::now();
        const bool ok = daemon.start(ctx, "serve", &err);
        if (ok)
            daemon.run(ctx, daemon.control, setupTuple(), nullptr, &err);
        else
            ctx.verifier->record(false, "daemon start: " + err);
        setup.total.push_back(secondsSince(t0));
        cache::store().setEnabled(true);
        return ok;
    };
    for (int rep = 0; rep < setupReps(ctx); ++rep)
        if (!setupRep())
            return;

    // The seed shuffles the pool of novel tuples and the per-client
    // order of novel and repeat requests; clients own disjoint slices.
    std::vector<ServeTuple> pool = servePool(smoke);
    Rng rng(ctx.opt.seed * 0x9e3779b97f4a7c15ull + 3);
    rng.shuffle(pool);
    const int nClients = std::max(1, std::min(ctx.nproc, 4));
    std::vector<ClientLog> logs(static_cast<std::size_t>(nClients));

    // One user on an idle daemon: a novel AllOn and PracVT run per
    // benchmark (tuples the load never asks for), in seeded order; one
    // block before the load and one after, so a brief host slowdown
    // sways half the samples at most.
    std::map<core::PolicyKind, std::vector<double>> idleMs;
    auto idleBlock = [&](int block) {
        Span span("serve.idle");
        std::vector<ServeTuple> idle = serveIdleTuples(smoke, block);
        rng.shuffle(idle);
        for (const ServeTuple &t : idle) {
            const auto t0 = Clock::now();
            if (daemon.run(ctx, daemon.control, t, nullptr, &err))
                idleMs[t.policy].push_back(ms(t0, Clock::now()));
        }
    };
    idleBlock(0);

    serve::StatsReplyMsg s0, s1;
    daemon.control.stats(s0, &err);
    const double cpu0 = processCpuSeconds();
    const auto load0 = Clock::now();
    const auto deadline =
        load0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(ctx.opt.seconds));
    auto clientLoop = [&](int k) {
        ClientLog &log = logs[static_cast<std::size_t>(k)];
        serve::Client client;
        std::string cerr;
        if (!client.connect(daemon.server->socketPath(), &cerr)) {
            ctx.verifier->record(false, "client connect: " + cerr);
            log.end = Clock::now();
            return;
        }
        Rng crng(ctx.opt.seed * 0x9e3779b97f4a7c15ull + 16 + k);
        std::size_t next = static_cast<std::size_t>(k);
        std::vector<std::size_t> answered;
        bool repeatFirst = false;
        for (std::size_t i = 0; Clock::now() < deadline; ++i) {
            // Requests come in pairs, one novel and one repeat, in a
            // seeded order; a client's first request is always novel.
            if (i % 2 == 0)
                repeatFirst = !answered.empty() && crng.below(2) == 1;
            const bool repeat = (i % 2 == 0) == repeatFirst;
            std::size_t idx;
            if (repeat) {
                idx = answered[crng.below(answered.size())];
            } else {
                if (next >= pool.size())
                    break;
                idx = next;
                next += static_cast<std::size_t>(nClients);
            }
            const ServeTuple &t = pool[idx];
            const std::uint64_t req =
                Tracer::instance().enabled() ? Tracer::instance().newId() : 0;
            std::uint64_t digest = 0;
            const auto t0 = Clock::now();
            bool ok = false;
            {
                Span span("serve.request", 0, req);
                ok = daemon.run(ctx, client, t, &digest, &cerr);
            }
            const auto t1 = Clock::now();
            log.latencyMs.push_back(ms(t0, t1));
            log.endS.push_back(ms(load0, t1) / 1e3);
            log.novelAt.push_back(!repeat);
            if (!ok)
                break;
            if (repeat) {
                ++log.repeats;
            } else {
                ++log.novel;
                answered.push_back(idx);
                log.served.push_back({idx, digest});
            }
        }
        log.end = Clock::now();
    };
    {
        Span span("serve.load");
        std::vector<std::thread> threads;
        for (int k = 0; k < nClients; ++k)
            threads.emplace_back(clientLoop, k);
        for (auto &t : threads)
            t.join();
    }
    Clock::time_point loadEnd = load0;
    for (const auto &log : logs)
        loadEnd = std::max(loadEnd, log.end);
    const double wallS = std::chrono::duration<double>(loadEnd - load0).count();
    const double cpu = processCpuSeconds() - cpu0;
    daemon.control.stats(s1, &err);

    // Throughput and latency quantiles per sixth of the load (by
    // completion time), then the median over the windows.
    constexpr int kWindows = 6;
    std::vector<double> latency, rps(kWindows), cps(kWindows), p50s, p90s;
    std::vector<std::vector<double>> windowMs(kWindows);
    std::size_t repeats = 0, novel = 0;
    for (const auto &log : logs) {
        repeats += log.repeats;
        novel += log.novel;
        for (std::size_t i = 0; i < log.latencyMs.size(); ++i) {
            const double endS = log.endS[i];
            const int w = std::min(
                kWindows - 1, static_cast<int>(endS / wallS * kWindows));
            latency.push_back(log.latencyMs[i]);
            windowMs[static_cast<std::size_t>(w)].push_back(log.latencyMs[i]);
            rps[static_cast<std::size_t>(w)] += 1.0;
            if (log.novelAt[i])
                cps[static_cast<std::size_t>(w)] += 1.0;
        }
    }
    for (int w = 0; w < kWindows; ++w) {
        rps[static_cast<std::size_t>(w)] *= kWindows / wallS;
        cps[static_cast<std::size_t>(w)] *= kWindows / wallS;
        p50s.push_back(quantile(windowMs[static_cast<std::size_t>(w)], 0.5));
        p90s.push_back(quantile(windowMs[static_cast<std::size_t>(w)], 0.9));
    }
    checkMemoRatio(ctx, s0, s1, repeats, repeats + novel);
    std::printf("serve: %d clients, %zu novel, %zu repeats, %zu pool\n",
                nClients, novel, repeats, pool.size());
    std::printf("serve latency deciles ms:");
    for (int d = 1; d < 10; ++d)
        std::printf(" %.1f", quantile(latency, d / 10.0));
    std::printf("\n");

    const double meanLatency =
        latency.empty() ? 0.0
                        : std::accumulate(latency.begin(), latency.end(), 0.0) /
                              static_cast<double>(latency.size());
    setServeLayerMetrics(ctx.layer, s0, s1, wallS, meanLatency,
                         medianPing(daemon.control, smoke ? 5 : 50),
                         latency.size());

    idleBlock(1);
    setRequestMetrics(ctx, median(cps), median(rps), median(p50s),
                      median(p90s), median(idleMs[core::PolicyKind::AllOn]),
                      median(idleMs[core::PolicyKind::PracVT]));
    ctx.layer.set("sim.cpu_util", cpu / (wallS * ctx.nproc), "ratio");
    for (int rep = 0; rep < setupReps(ctx); ++rep)
        setupRep();
    reportSetup(ctx, setup);
    daemon.stop();
    std::filesystem::remove_all(ctx.opt.workDir + "/serve");

    // Served == direct: a seeded subset recomputed in-process, without
    // the daemon or the memo, must reproduce the served bytes.
    {
        Span span("verify.direct");
        std::vector<std::pair<std::size_t, std::uint64_t>> served;
        for (const auto &log : logs)
            served.insert(served.end(), log.served.begin(), log.served.end());
        rng.shuffle(served);
        served.resize(std::min<std::size_t>(served.size(), smoke ? 2 : 6));
        sim::Simulation direct(ctx.chip, defaultConfig(smoke, 1));
        for (const auto &[idx, digest] : served) {
            const ServeTuple &t = pool[idx];
            sim::RecordOptions opts;
            opts.trackVr = t.trackVr;
            opts.noiseSamplesOverride = 0;
            const sim::RunResult r = direct.run(
                workload::profileByName(t.benchmark), t.policy, opts);
            ctx.verifier->record(resultDigest(r) == digest,
                                 "served " + t.key() + " differs from direct");
        }
    }

    if (ctx.opt.trace) {
        const sim::SimConfig cfg = defaultConfig(smoke, ctx.nproc);
        ProbeInputs in;
        in.cfg = &cfg;
        runLayerProbes(ctx, in);
    }
}

void
runServeProbe(Context &ctx)
{
    Span span("probe.serve");
    std::string err;
    cache::store().clear();
    Daemon daemon;
    if (!daemon.start(ctx, "serve-probe", &err)) {
        ctx.verifier->record(false, "probe daemon start: " + err);
        return;
    }
    daemon.run(ctx, daemon.control, setupTuple(), nullptr, &err);
    std::vector<ServeTuple> pool = servePool(ctx.opt.smoke);
    Rng rng(ctx.opt.seed * 0x9e3779b97f4a7c15ull + 4);
    rng.shuffle(pool);
    pool.resize(std::min<std::size_t>(pool.size(), 8));

    serve::StatsReplyMsg s0, s1;
    daemon.control.stats(s0, &err);
    std::vector<double> latency;
    const auto t0 = Clock::now();
    for (int pass = 0; pass < 2; ++pass) // novel, then the same repeated
        for (const ServeTuple &t : pool) {
            const auto r0 = Clock::now();
            daemon.run(ctx, daemon.control, t, nullptr, &err);
            latency.push_back(ms(r0, Clock::now()));
        }
    const double wall = secondsSince(t0);
    daemon.control.stats(s1, &err);
    checkMemoRatio(ctx, s0, s1, pool.size(), 2 * pool.size());
    const double mean = std::accumulate(latency.begin(), latency.end(), 0.0) /
                        static_cast<double>(latency.size());
    const double ping = medianPing(daemon.control, 20);
    // The workload's own cache counters stay; serve-only ones come from
    // this single-client exchange.
    Metrics probe;
    setServeLayerMetrics(probe, s0, s1, wall, mean, ping, latency.size());
    ctx.layer.fillFrom(probe);
    daemon.stop();
    std::filesystem::remove_all(ctx.opt.workDir + "/serve-probe");
}

// --- golden recording ---------------------------------------------------------

int
recordGoldens(Context &ctx)
{
    Goldens g;
    for (bool smoke : {false, true}) {
        ctx.opt.smoke = smoke;
        const floorplan::Chip chip = buildChip(smoke);

        // Everything serial and direct: jobs 1, no daemon, no memo.
        sim::Simulation dflt(chip, defaultConfig(smoke, 1));
        const auto benches = gridBenchmarks(smoke);
        const auto policies = gridPolicies(smoke);
        for (const auto &b : benches)
            for (auto p : policies)
                g.put(ctx.universe("grid-default"), cellKey(b, p),
                      resultDigest(dflt.run(workload::profileByName(b), p)));
        std::fprintf(stderr, "recorded %s\n", ctx.universe("grid-default").c_str());

        sim::Simulation paper(chip, paperConfig(smoke, 1));
        for (const auto &b : paperBenchmarks(smoke))
            for (auto p : paperPolicies())
                g.put(ctx.universe("run-paper"), cellKey(b, p),
                      resultDigest(paper.run(workload::profileByName(b), p)));
        std::fprintf(stderr, "recorded %s\n", ctx.universe("run-paper").c_str());

        std::vector<ServeTuple> tuples = servePool(smoke);
        for (int block : {0, 1})
            for (const ServeTuple &t : serveIdleTuples(smoke, block))
                tuples.push_back(t);
        tuples.push_back(setupTuple());
        for (const ServeTuple &t : tuples) {
            sim::RecordOptions opts;
            opts.trackVr = t.trackVr;
            opts.noiseSamplesOverride = 0;
            g.put(ctx.universe("serve-mixed"), t.key(),
                  resultDigest(dflt.run(workload::profileByName(t.benchmark),
                                        t.policy, opts)));
        }
        std::fprintf(stderr, "recorded %s\n", ctx.universe("serve-mixed").c_str());
    }
    if (!g.save(ctx.opt.recordGoldensPath)) {
        std::fprintf(stderr, "perfbench: cannot write %s\n",
                     ctx.opt.recordGoldensPath.c_str());
        return 1;
    }
    for (const char *u : {"grid-default", "run-paper", "serve-mixed"})
        std::printf("universe %s %s\n", u, hex64(g.universeDigest(u)).c_str());
    return 0;
}

} // namespace perfbench
} // namespace tg
