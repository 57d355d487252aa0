/**
 * @file
 * Micro-benchmark of the parallel sweep engine and the artifact
 * cache.
 *
 * Legs (all over the same benchmark x policy grid, all asserted
 * bit-identical to each other):
 *
 *   1. ablation  — artifact cache disabled: every cell re-synthesises
 *      its traces and re-fits/re-factors from scratch.
 *   2. cold      — cache enabled but empty: pays the same work as the
 *      ablation once per distinct key, then reuses across the policy
 *      axis (8 policies share each benchmark's power trace).
 *   3. warm      — a fresh Simulation against the populated store:
 *      base factorisations, predictor fit and traces all hit.
 *   4. parallel  — the warm grid through the worker pool, asserting
 *      the sweep determinism contract at --jobs N.
 *   5. memo cold — whole-RunResult memoisation on (TG_CACHE_DIR or a
 *      scratch dir): populates the memo + disk tier.
 *   6. memo warm — the same grid answered from the memo.
 *
 * With TG_CACHE_DIR set the disk artifacts survive the process; a
 * second process run with --expect-warm asserts they are loaded
 * (nonzero disk hits) and bit-identical to a cache-off recompute.
 *
 *   ./microbench_sweep [--jobs N] [--quick] [--expect-warm]
 *
 * --quick shrinks the grid (4 benchmarks x 3 policies) for CI smoke
 * runs; the default is the paper's full 14-benchmark x 8-policy
 * evaluation grid.
 */

#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <sstream>

#include "bench_common.hh"
#include "cache/store.hh"

using namespace tg;

namespace {

using bench::compareGrids;

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/** One timed pass: Simulation construction + sweep. */
struct Leg
{
    sim::SweepResult sweep;
    double constructS = 0.0; //!< Simulation construction wall-clock
    double totalS = 0.0;     //!< construction + sweep wall-clock
};

/**
 * Construct a fresh Simulation (so per-instance work — PDN base
 * factorisations, predictor fit — is paid or cache-hit inside the
 * timed region) and run the grid through it.
 */
Leg
runLeg(const std::vector<std::string> &benchmarks,
       const std::vector<core::PolicyKind> &policies, bool memoize,
       int jobs, const std::string &cache_dir = "")
{
    Leg leg;
    auto t0 = std::chrono::steady_clock::now();
    sim::SimConfig cfg{};
    cfg.memoizeResults = memoize;
    cfg.cacheDir = cache_dir;
    sim::Simulation simulation(bench::evaluationChip(), cfg);
    leg.constructS = secondsSince(t0);
    leg.sweep =
        sim::runSweep(simulation, benchmarks, policies, false, jobs);
    leg.totalS = secondsSince(t0);
    return leg;
}

/**
 * Second-process check (--expect-warm): the grid must be served from
 * the disk tier populated by an earlier process, and the served
 * results must be bit-identical to a cache-off recompute.
 */
int
expectWarm(const std::vector<std::string> &benchmarks,
           const std::vector<core::PolicyKind> &policies)
{
    bench::banner("microbench: warm artifact cache",
                  "second-process check: run-results must load from "
                  "the disk tier");
    cache::store().clear();
    cache::store().resetStats();

    Leg warm = runLeg(benchmarks, policies, true, 1);
    const std::size_t n =
        warm.sweep.benchmarks.size() * warm.sweep.policies.size();
    auto st = cache::store().stats();
    std::printf("%s\n", st.describe().c_str());

    const auto run_kind =
        static_cast<std::size_t>(cache::ArtifactKind::RunResult);
    if (st.diskHits == 0 && st.kind[run_kind].hits == 0) {
        std::fprintf(stderr,
                     "--expect-warm: no run-result cache hits — is "
                     "TG_CACHE_DIR set and populated by a prior "
                     "(cold) run?\n");
        return 1;
    }

    // Soundness check: the served artifacts must equal a recompute.
    cache::store().setEnabled(false);
    Leg recompute = runLeg(benchmarks, policies, false, 1);
    cache::store().setEnabled(true);

    if (compareGrids(warm.sweep, recompute.sweep, "warm(cached)",
                     "recompute"))
        return 1;
    std::printf("warm: %8.2f s   recompute: %8.2f s   (%.1fx)\n",
                warm.totalS, recompute.totalS,
                recompute.totalS / warm.totalS);
    std::printf("cache-served results bit-identical to recompute "
                "over %zu runs\n",
                n);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    bool quick = false;
    bool expect_warm = false;
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--quick"))
            quick = true;
        if (!std::strcmp(argv[i], "--expect-warm"))
            expect_warm = true;
    }
    int jobs = exec::resolveJobs(bench::parseJobs(argc, argv));

    std::vector<std::string> benchmarks;
    std::vector<core::PolicyKind> policies;
    if (quick) {
        benchmarks = {"barnes", "fft", "lu_ncb", "water_s"};
        policies = {core::PolicyKind::AllOn, core::PolicyKind::OracT,
                    core::PolicyKind::PracVT};
    }

    if (expect_warm)
        return expectWarm(benchmarks, policies);

    bench::banner("microbench: parallel sweep + artifact cache",
                  quick ? "4-benchmark x 3-policy smoke grid"
                        : "full 14-benchmark x 8-policy grid");

    // --- leg 1: ablation, cache disabled --------------------------
    cache::store().clear();
    cache::store().resetStats();
    cache::store().setEnabled(false);
    Leg off = runLeg(benchmarks, policies, false, 1);
    const std::size_t n =
        off.sweep.benchmarks.size() * off.sweep.policies.size();
    std::printf("ablation (cache off, --jobs 1): %8.2f s for %zu "
                "runs (%.2f s construction)\n",
                off.totalS, n, off.constructS);

    // --- leg 2: cold, cache enabled but empty ---------------------
    cache::store().setEnabled(true);
    cache::store().clear();
    cache::store().resetStats();
    Leg cold = runLeg(benchmarks, policies, false, 1);
    std::printf("cold     (cache on,  --jobs 1): %8.2f s "
                "(policy-axis trace reuse: %.2fx vs ablation)\n",
                cold.totalS, off.totalS / cold.totalS);

    // --- leg 3: warm — fresh context, populated store -------------
    const std::uint64_t hits_before =
        cache::store().stats().hitsTotal();
    Leg warm = runLeg(benchmarks, policies, false, 1);
    auto st = cache::store().stats();
    std::printf("warm     (cache on,  --jobs 1): %8.2f s "
                "(%.1fx vs ablation; %.2f s construction)\n",
                warm.totalS, off.totalS / warm.totalS,
                warm.constructS);
    std::printf("%s\n", st.describe().c_str());
    if (st.hitsTotal() <= hits_before) {
        std::fprintf(stderr, "warm leg recorded no cache hits — the "
                             "prebuild caches are not engaging\n");
        return 1;
    }

    // --- leg 4: warm grid through the worker pool -----------------
    Leg par = runLeg(benchmarks, policies, false, jobs);
    std::printf("parallel (cache on,  --jobs %d): %8.2f s "
                "(%.2fx vs warm serial on %d hardware threads)\n",
                jobs, par.totalS, warm.totalS / par.totalS,
                exec::hardwareThreads());

    // --- determinism assertions across every leg ------------------
    int mismatches = 0;
    mismatches +=
        compareGrids(off.sweep, cold.sweep, "ablation", "cold");
    mismatches +=
        compareGrids(off.sweep, warm.sweep, "ablation", "warm");
    mismatches +=
        compareGrids(warm.sweep, par.sweep, "warm serial", "parallel");

    // --- legs 5/6: whole-RunResult memoisation ---------------------
    // TG_CACHE_DIR doubles as the CI pair's shared disk tier; without
    // it the memo legs still run against a private scratch dir.
    const char *env_dir = std::getenv("TG_CACHE_DIR");
    std::string dir = env_dir ? env_dir : "";
    const bool scratch = dir.empty();
    if (scratch)
        dir = (std::filesystem::temp_directory_path() /
               "tg-microbench-cache")
                  .string();
    Leg memo_cold = runLeg(benchmarks, policies, true, 1, dir);
    std::printf("memo cold (populate,  --jobs 1): %8.2f s\n",
                memo_cold.totalS);
    Leg memo_warm = runLeg(benchmarks, policies, true, 1, dir);
    std::printf("memo warm (run-result, --jobs 1): %8.2f s "
                "(%.0fx vs ablation)\n",
                memo_warm.totalS, off.totalS / memo_warm.totalS);
    mismatches += compareGrids(off.sweep, memo_cold.sweep, "ablation",
                               "memo cold");
    mismatches += compareGrids(off.sweep, memo_warm.sweep, "ablation",
                               "memo warm");
    auto st2 = cache::store().stats();
    std::printf("disk tier: %llu run-results written to %s\n",
                static_cast<unsigned long long>(st2.diskWrites),
                dir.c_str());
    if (scratch)
        std::filesystem::remove_all(dir);

    if (mismatches) {
        std::fprintf(stderr, "%d mismatching runs — the artifact "
                             "cache or the parallel sweep is NOT "
                             "deterministic\n",
                     mismatches);
        return 1;
    }
    std::printf("determinism: all %zu runs bit-identical across "
                "ablation/cold/warm/parallel/memoised legs\n",
                n);
    return 0;
}
