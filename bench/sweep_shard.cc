/**
 * @file
 * Scaling ladder of the sharded multi-process sweep engine.
 *
 * Runs the (benchmark x policy) grid three ways and asserts every
 * variant bit-identical to the single-threaded single-process
 * baseline (the PR 1/3/6 determinism contract, extended across
 * process boundaries by serve/coordinator.hh):
 *
 *   1. serial       — runSweep, one thread, one process.
 *   2. threads-only — runSweep through the in-process worker pool
 *                     (--jobs N).
 *   3. sharded      — runShardedSweep at each worker count of the
 *                     ladder (default P in {1, 2, 4}; a single
 *                     --processes N runs just that point), with
 *                     --jobs N threads inside every worker.
 *
 * Workers re-exec this binary as serve endpoints and share whatever
 * TG_CACHE_DIR names, so a populated disk tier warms all processes.
 *
 *   ./sweep_shard [--quick] [--jobs N] [--processes N]
 *
 * --quick shrinks the grid to 4 benchmarks x 3 policies for CI smoke
 * runs. Exit status is nonzero on any cross-leg bit mismatch.
 */

#include <chrono>
#include <cstdio>
#include <cstring>

#include "bench_common.hh"
#include "cache/store.hh"
#include "serve/coordinator.hh"
#include "shard/worker.hh"

using namespace tg;

namespace {

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/** One in-process runSweep with a fresh Simulation, timed. */
sim::SweepResult
runInProcess(const std::vector<std::string> &benchmarks,
             const std::vector<core::PolicyKind> &policies, int jobs,
             double &seconds)
{
    cache::store().clear();
    cache::store().resetStats();
    auto t0 = std::chrono::steady_clock::now();
    sim::SimConfig cfg{};
    cfg.memoizeResults = false; // time the sweep, not the memo
    sim::Simulation simulation(bench::evaluationChip(), cfg);
    sim::SweepResult r =
        sim::runSweep(simulation, benchmarks, policies, false, jobs);
    seconds = secondsSince(t0);
    return r;
}

} // namespace

int
main(int argc, char **argv)
{
    // Re-exec'ed by the coordinator below: become a sweep endpoint.
    if (serve::isEndpointInvocation(argc, argv))
        return serve::endpointMain(argc, argv);

    bool quick = false;
    for (int i = 1; i < argc; ++i)
        if (!std::strcmp(argv[i], "--quick"))
            quick = true;
    const int jobs = exec::resolveJobs(bench::parseJobs(argc, argv));
    const int processes =
        bench::parseIntFlag(argc, argv, "--processes", 0);

    std::vector<std::string> benchmarks;
    std::vector<core::PolicyKind> policies;
    if (quick) {
        benchmarks = {"barnes", "fft", "lu_ncb", "water_s"};
        policies = {core::PolicyKind::AllOn, core::PolicyKind::OracT,
                    core::PolicyKind::PracVT};
    }

    bench::banner(
        "sweep_shard: multi-process scaling ladder",
        quick ? "4-benchmark x 3-policy smoke grid"
              : "full 14-benchmark x 8-policy evaluation grid");

    // --- leg 1: serial single-process baseline --------------------
    double serial_s = 0.0;
    sim::SweepResult serial =
        runInProcess(benchmarks, policies, 1, serial_s);
    const std::size_t n =
        serial.benchmarks.size() * serial.policies.size();
    std::printf("serial        (1 proc  x 1 job):  %8.2f s for %zu "
                "cells\n",
                serial_s, n);

    int mismatches = 0;

    // --- leg 2: threads-only ---------------------------------------
    double threads_s = 0.0;
    sim::SweepResult threads =
        runInProcess(serial.benchmarks, serial.policies, jobs,
                     threads_s);
    std::printf("threads-only  (1 proc  x %d job%s): %8.2f s "
                "(%.2fx vs serial on %d hardware threads)\n",
                jobs, jobs == 1 ? "" : "s", threads_s,
                serial_s / threads_s, exec::hardwareThreads());
    mismatches += bench::compareGrids(serial, threads, "serial",
                                      "threads-only");

    // --- leg 3: the process ladder ---------------------------------
    std::vector<int> ladder;
    if (processes > 0)
        ladder = {processes};
    else
        ladder = {1, 2, 4};

    sim::SimConfig worker_cfg{};
    worker_cfg.memoizeResults = false;
    for (int p : ladder) {
        serve::ShardedSweepOptions sopt;
        sopt.benchmarks = serial.benchmarks;
        sopt.policies = serial.policies;
        sopt.processes = p;
        sopt.jobsPerWorker = jobs;
        sopt.setup = shard::encodeBasicSetup(shard::ChipKind::Power8,
                                             0, worker_cfg);
        serve::ShardedSweepStats stats;
        auto t0 = std::chrono::steady_clock::now();
        sim::SweepResult sharded =
            serve::runShardedSweep(sopt, &stats);
        const double s = secondsSince(t0);
        std::printf("sharded       (%d procs x %d job%s): %8.2f s "
                    "(%.2fx vs serial; %d shards, %d reassigned, "
                    "%d deaths)\n",
                    p, jobs, jobs == 1 ? "" : "s", s, serial_s / s,
                    stats.shardsDispatched, stats.shardsReassigned,
                    stats.workerDeaths);
        mismatches +=
            bench::compareGrids(serial, sharded, "serial", "sharded");
    }

    if (mismatches) {
        std::fprintf(stderr,
                     "%d mismatching cells — the sharded sweep is "
                     "NOT bit-identical to the serial baseline\n",
                     mismatches);
        return 1;
    }
    std::printf("determinism: all %zu cells bit-identical across "
                "serial/threads/process ladder\n",
                n);
    return 0;
}
