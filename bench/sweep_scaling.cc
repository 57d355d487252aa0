/**
 * @file
 * Scaling ladder of the threaded sweep engine.
 *
 * Runs the (benchmark x policy) grid twice and asserts the threaded
 * grid bit-identical to the serial baseline (the sweep determinism
 * contract of sim/sweep.hh):
 *
 *   1. serial       — runSweep with one runner: cells run one after
 *                     another, and each run's noise windows still fan
 *                     out on the process pool unless TG_JOBS=1.
 *   2. threads-only — runSweep through the process pool (--jobs N);
 *                     cells run on pool threads, their windows inline.
 *
 *   ./sweep_scaling [--quick] [--jobs N]
 *
 * --quick shrinks the grid to 4 benchmarks x 3 policies for CI smoke
 * runs. Exit status is nonzero on any cross-leg bit mismatch.
 */

#include <chrono>
#include <cstdio>
#include <cstring>

#include "bench_common.hh"
#include "cache/store.hh"

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
    bool quick = false;
    for (int i = 1; i < argc; ++i)
        if (!std::strcmp(argv[i], "--quick"))
            quick = true;
    const int jobs = exec::resolveJobs(bench::parseJobs(argc, argv));

    std::vector<std::string> benchmarks;
    std::vector<core::PolicyKind> policies;
    if (quick) {
        benchmarks = {"barnes", "fft", "lu_ncb", "water_s"};
        policies = {core::PolicyKind::AllOn, core::PolicyKind::OracT,
                    core::PolicyKind::PracVT};
    }

    bench::banner(
        "sweep_scaling: threaded grid ladder",
        quick ? "4-benchmark x 3-policy smoke grid"
              : "full 14-benchmark x 8-policy evaluation grid");

    // --- leg 1: serial baseline ------------------------------------
    double serial_s = 0.0;
    sim::SweepResult serial =
        runInProcess(benchmarks, policies, 1, serial_s);
    const std::size_t n =
        serial.benchmarks.size() * serial.policies.size();
    std::printf("serial        (1 job):  %8.2f s for %zu cells\n",
                serial_s, n);

    // --- leg 2: threads-only ---------------------------------------
    double threads_s = 0.0;
    sim::SweepResult threads =
        runInProcess(serial.benchmarks, serial.policies, jobs,
                     threads_s);
    std::printf("threads-only  (%d job%s): %8.2f s "
                "(%.2fx vs serial on %d hardware threads)\n",
                jobs, jobs == 1 ? "" : "s", threads_s,
                serial_s / threads_s, exec::hardwareThreads());
    const int mismatches = bench::compareGrids(serial, threads, "serial",
                                               "threads-only");

    if (mismatches) {
        std::fprintf(stderr,
                     "%d mismatching cells — the threaded sweep is "
                     "NOT bit-identical to the serial baseline\n",
                     mismatches);
        return 1;
    }
    std::printf("determinism: all %zu cells bit-identical across "
                "serial/threads\n",
                n);
    return 0;
}
