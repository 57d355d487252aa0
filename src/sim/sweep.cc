#include "sim/sweep.hh"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <sstream>

#include "common/exec.hh"
#include "common/logging.hh"
#include "workload/profile.hh"

namespace tg {
namespace sim {

double
SweepResult::average(core::PolicyKind policy,
                     const std::function<double(const RunResult &)>
                         &metric) const
{
    double sum = 0.0;
    std::size_t n = 0;
    for (std::size_t b = 0; b < benchmarks.size(); ++b) {
        for (std::size_t p = 0; p < policies.size(); ++p) {
            if (policies[p] != policy)
                continue;
            sum += metric(results[b][p]);
            ++n;
        }
    }
    TG_ASSERT(n > 0, "policy not part of the sweep");
    return sum / static_cast<double>(n);
}

double
SweepResult::maximum(core::PolicyKind policy,
                     const std::function<double(const RunResult &)>
                         &metric) const
{
    bool seen = false;
    double best = 0.0;
    for (std::size_t b = 0; b < benchmarks.size(); ++b) {
        for (std::size_t p = 0; p < policies.size(); ++p) {
            if (policies[p] != policy)
                continue;
            double v = metric(results[b][p]);
            if (!seen || v > best) {
                best = v;
                seen = true;
            }
        }
    }
    TG_ASSERT(seen, "policy not part of the sweep");
    return best;
}

const RunResult &
SweepResult::at(const std::string &benchmark,
                core::PolicyKind policy) const
{
    for (std::size_t b = 0; b < benchmarks.size(); ++b) {
        if (benchmarks[b] != benchmark)
            continue;
        // The benchmark row is found: resolve the policy within it
        // and report a policy-specific failure when it is absent,
        // instead of falling through to scan the remaining rows (a
        // duplicate row later in the sweep would otherwise shadow
        // the miss).
        for (std::size_t p = 0; p < policies.size(); ++p)
            if (policies[p] == policy)
                return results[b][p];
        fatal("policy ", core::policyName(policy),
              " not part of the sweep for benchmark ", benchmark);
    }
    fatal("no sweep entry for benchmark ", benchmark);
}

std::string
progressLine(const RunResult &r)
{
    std::ostringstream line;
    char buf[96];
    std::snprintf(buf, sizeof buf, "Tmax=%.1f grad=%.1f noise=%.1f%%",
                  r.maxTmax, r.maxGradient, r.maxNoiseFrac * 100.0);
    line << "[" << r.benchmark << " / " << core::policyName(r.policy)
         << "] " << buf;
    return line.str();
}

void
runSweepCells(Simulation &simulation,
              const std::vector<std::string> &benchmarks,
              const std::vector<core::PolicyKind> &policies,
              const std::vector<std::size_t> &cells, int jobs,
              const RecordOptions &opts,
              const std::function<void(std::size_t cell,
                                       RunResult &&r)> &emit,
              SweepContexts *reuse)
{
    // Before anything indexes by `c % policies.size()`: with no
    // policies, every cell is out of range.
    for (std::size_t c : cells)
        TG_ASSERT(c < benchmarks.size() * policies.size(),
                  "sweep cell index out of range");

    const std::size_t n_tasks = cells.size();
    std::size_t want = static_cast<std::size_t>(exec::resolveJobs(
        jobs > 0 ? jobs : simulation.config().jobs));
    const int n_jobs =
        static_cast<int>(std::min(std::max<std::size_t>(n_tasks, 1),
                                  want));

    // Thermally-aware policies need the fitted theta predictor. Fit
    // it on the caller's context before the fan-out, so the artifact
    // store holds the fit before any runner starts and every other
    // runner's context takes it from there instead of re-running the
    // profiling pass. With the store off each runner fits its own;
    // the pass is deterministic in (chip, config), so either way the
    // bits are the same. Only policies actually present in the
    // requested cells count.
    const bool want_predictor = std::any_of(
        cells.begin(), cells.end(), [&](std::size_t c) {
            return core::isThermallyAware(
                policies[c % policies.size()]);
        });
    if (want_predictor)
        simulation.thermalPredictor();

    // Resolve every benchmark name once up front: profileByName is a
    // linear scan, and the task lambda would otherwise repeat it for
    // all |policies| cells of a row (and re-validate names mid-sweep
    // instead of failing before any work is queued). Profiles are
    // stable storage (splashProfiles' static vector), so the pointers
    // stay valid across the whole fan-out.
    std::vector<const workload::BenchmarkProfile *> row_profiles;
    row_profiles.reserve(benchmarks.size());
    for (const auto &name : benchmarks)
        row_profiles.push_back(&workload::profileByName(name));

    // Runner 0 runs on the caller's `simulation`; runner r >= 1 on
    // its own context, contexts.sims[r - 1]. run() is deterministic in
    // (chip, config, profile, policy) but mutates per-instance solver
    // state (PDN active-set factorisations, scratch), so concurrent
    // runs must not share an instance. While runner 0 runs, the other
    // runners read only `simulation`'s chip and config, which no run
    // writes. Each builds its context lazily on its first cell, so
    // construction (thermal and PDN factorisations) overlaps across
    // runners. Results land in pre-assigned (benchmark, policy)
    // slots, so the grid is bit-identical at any runner count; one
    // runner runs the cells inline in order (exec::parallelFor). A
    // caller-owned SweepContexts keeps the contexts (and their solver
    // caches) alive across batches.
    SweepContexts local;
    SweepContexts &contexts = reuse ? *reuse : local;
    if (contexts.sims.size() + 1 < static_cast<std::size_t>(n_jobs))
        contexts.sims.resize(static_cast<std::size_t>(n_jobs) - 1);
    auto context = [&](int worker) -> Simulation & {
        if (worker == 0)
            return simulation;
        auto &ctx = contexts.sims[static_cast<std::size_t>(worker) - 1];
        if (!ctx)
            ctx = std::make_unique<Simulation>(simulation.chip(),
                                               simulation.config());
        return *ctx;
    };
    exec::parallelFor(n_tasks, n_jobs, [&](int worker, std::size_t task) {
        // Cancellation point: once per cell, before any work. Each
        // in-flight cell also checks per epoch (via opts.cancel), so
        // a cancel lands within one epoch on every runner; the first
        // CancelledError aborts the fan-out and is rethrown to the
        // caller. Cells already emitted are complete — a cancelled
        // sweep streams whole cells or nothing, never a torn one.
        if (opts.cancel)
            opts.cancel->throwIfCancelled();
        const std::size_t cell = cells[task];
        const std::size_t b = cell / policies.size();
        const std::size_t p = cell % policies.size();
        emit(cell,
             context(worker).run(*row_profiles[b], policies[p], opts));
    });
}

SweepResult
runSweep(Simulation &simulation, std::vector<std::string> benchmarks,
         std::vector<core::PolicyKind> policies, bool progress,
         int jobs, const RecordOptions &opts)
{
    if (benchmarks.empty())
        for (const auto &p : workload::splashProfiles())
            benchmarks.push_back(p.name);
    if (policies.empty())
        policies = core::allPolicyKinds();

    SweepResult sweep;
    sweep.benchmarks = benchmarks;
    sweep.policies = policies;
    sweep.results.assign(benchmarks.size(),
                         std::vector<RunResult>(policies.size()));

    const std::size_t n_tasks = benchmarks.size() * policies.size();
    std::vector<std::size_t> cells(n_tasks);
    for (std::size_t c = 0; c < n_tasks; ++c)
        cells[c] = c;

    exec::ProgressSink sink(progress, n_tasks);
    runSweepCells(
        simulation, benchmarks, policies, cells, jobs, opts,
        [&](std::size_t cell, RunResult &&r) {
            std::string line = progressLine(r);
            sweep.results[cell / policies.size()]
                         [cell % policies.size()] = std::move(r);
            sink.completed(line);
        });
    return sweep;
}

} // namespace sim
} // namespace tg
