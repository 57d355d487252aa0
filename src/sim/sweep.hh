/**
 * @file
 * Policy x benchmark sweeps shared by the figure benches.
 *
 * Figs. 9, 10 and 11 plot the same 14-benchmark x 8-policy grid of
 * runs; runSweep() executes it once against a shared Simulation and
 * the benches format the metric they report. Helper aggregation and
 * formatting utilities keep bench binaries small.
 */

#ifndef TG_SIM_SWEEP_HH
#define TG_SIM_SWEEP_HH

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sim/simulation.hh"

namespace tg {
namespace sim {

/** Results of a benchmark x policy sweep. */
struct SweepResult
{
    std::vector<std::string> benchmarks;      //!< row labels
    std::vector<core::PolicyKind> policies;   //!< column labels
    /** results[b][p] for benchmark b under policy p. */
    std::vector<std::vector<RunResult>> results;

    /** Column average of an extracted metric. */
    double average(core::PolicyKind policy,
                   const std::function<double(const RunResult &)>
                       &metric) const;

    /** Column maximum of an extracted metric. */
    double maximum(core::PolicyKind policy,
                   const std::function<double(const RunResult &)>
                       &metric) const;

    /**
     * The run of (benchmark, policy); fatals when absent, with a
     * policy-specific message when the benchmark row exists but was
     * not swept under that policy.
     */
    const RunResult &at(const std::string &benchmark,
                        core::PolicyKind policy) const;
};

/**
 * Reusable Simulation contexts of runSweepCells(), one per runner
 * after the first: runner 0 runs on the caller's Simulation, runner
 * r >= 1 on sims[r - 1]. A caller that issues many cell batches
 * against the same grid (the sweep server's warm contexts) passes one
 * instance across calls so per-context construction (thermal/PDN
 * factorisations) is paid once, not per batch.
 * Contexts are only valid for the (chip, config) of the Simulation
 * they were built from.
 */
struct SweepContexts
{
    std::vector<std::unique_ptr<Simulation>> sims;
};

/** The progress line runSweep prints for one finished run; shared
 *  with tg_client, whose served-sweep lines then read like a local
 *  sweep's. */
std::string progressLine(const RunResult &r);

/**
 * Run an arbitrary subset of the benchmark x policy grid. Cell index
 * `c` addresses benchmark `c / policies.size()` under policy
 * `c % policies.size()` — the canonical grid key the thread fan-out,
 * the served ServeSweep cell list and the client's merge
 * (serve::placeCell) share. A cell outside the grid panics before
 * any work starts.
 *
 * emit(cell, result) is called exactly once per requested cell; with
 * more than one job it may be called concurrently from different
 * workers (always for distinct cells), so the callback must be
 * thread-safe. Results are bit-identical at any worker count: each
 * cell is a deterministic function of (chip, config, benchmark,
 * policy, opts) alone.
 *
 * Cancellation: with opts.cancel set, the engine checks the token
 * before every cell (and each run checks per epoch) and aborts by
 * throwing exec::CancelledError. emit() is then called only for the
 * cells that completed before the trip — always whole cells; the
 * exactly-once contract holds for them and the rest are never
 * started.
 *
 * The cells fan out with exec::parallelFor, min(jobs, cells) runners
 * wide: runner 0 on `simulation` itself, each other runner on its own
 * context built from `simulation`'s chip and config. One runner runs
 * every cell inline, in order, on `simulation`.
 *
 * @param reuse optional cross-call contexts (see SweepContexts), one
 *              per runner after the first; nullptr builds fresh ones
 *              per call.
 */
void runSweepCells(Simulation &simulation,
                   const std::vector<std::string> &benchmarks,
                   const std::vector<core::PolicyKind> &policies,
                   const std::vector<std::size_t> &cells, int jobs,
                   const RecordOptions &opts,
                   const std::function<void(std::size_t cell,
                                            RunResult &&r)> &emit,
                   SweepContexts *reuse = nullptr);

/**
 * Run every (benchmark, policy) combination. Benchmarks default to
 * all 14 SPLASH-2x profiles, policies to the paper's full set.
 *
 * The grid fans out over the process pool as runSweepCells() does:
 * runner 0 on `simulation`, each other runner on a private context
 * built from its chip and config. Every (benchmark, policy) cell
 * lands in its pre-assigned slot, so the returned SweepResult is
 * bit-identical at any worker count — `--jobs 8` and `--jobs 1` agree
 * exactly.
 *
 * @param progress when true, prints one line per completed run so
 *                 long sweeps show liveness (completion order under
 *                 parallel execution).
 * @param jobs     worker count; 0 defers to simulation.config().jobs
 *                 and the TG_JOBS / hardware-concurrency ladder of
 *                 exec::resolveJobs().
 * @param opts     RecordOptions applied to every run of the grid
 *                 (e.g. a fault scenario for the resilience sweeps;
 *                 any referenced scenario must outlive the call).
 */
SweepResult
runSweep(Simulation &simulation,
         std::vector<std::string> benchmarks = {},
         std::vector<core::PolicyKind> policies = {},
         bool progress = false, int jobs = 0,
         const RecordOptions &opts = {});

} // namespace sim
} // namespace tg

#endif // TG_SIM_SWEEP_HH
