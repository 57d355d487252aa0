/**
 * @file
 * Shared helpers for the figure/table reproduction benches.
 *
 * Every bench binary regenerates one figure or table of the paper's
 * evaluation: it prints a header naming the artefact, the series the
 * paper plots, and (where the paper states one) the headline number
 * the reproduction should be compared against.
 */

#ifndef TG_BENCH_BENCH_COMMON_HH
#define TG_BENCH_BENCH_COMMON_HH

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "common/exec.hh"
#include "common/fields.hh"
#include "floorplan/power8.hh"
#include "sim/simulation.hh"
#include "sim/sweep.hh"
#include "workload/profile.hh"

namespace tg {
namespace bench {

/**
 * Parse the shared bench flags: --jobs N / -j N selects the worker
 * count for sweep fan-out (0 = TG_JOBS, then every hardware thread;
 * see exec::resolveJobs). Unknown arguments are ignored so benches
 * can layer their own flags on top.
 */
inline int
parseJobs(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        if ((!std::strcmp(argv[i], "--jobs") ||
             !std::strcmp(argv[i], "-j")) &&
            i + 1 < argc)
            return std::atoi(argv[i + 1]);
        if (!std::strncmp(argv[i], "--jobs=", 7))
            return std::atoi(argv[i] + 7);
    }
    return 0;
}

/** Parse `<flag> N` / `<flag>=N`; returns `fallback` when absent. */
inline int
parseIntFlag(int argc, char **argv, const char *flag, int fallback)
{
    const std::size_t len = std::strlen(flag);
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], flag) && i + 1 < argc)
            return std::atoi(argv[i + 1]);
        if (!std::strncmp(argv[i], flag, len) && argv[i][len] == '=')
            return std::atoi(argv[i] + len + 1);
    }
    return fallback;
}

/** Print the standard bench banner. */
inline void
banner(const std::string &artefact, const std::string &what)
{
    std::printf("=============================================="
                "==============\n");
    std::printf("ThermoGater reproduction — %s\n", artefact.c_str());
    std::printf("%s\n", what.c_str());
    std::printf("=============================================="
                "==============\n");
}

/** The evaluation chip (paper Table 1 / Fig. 4), built once. */
inline const floorplan::Chip &
evaluationChip()
{
    static const floorplan::Chip chip = floorplan::buildPower8Chip();
    return chip;
}

/** A shared FIVR-design simulation context for the benches. */
inline sim::Simulation &
evaluationSim()
{
    static sim::Simulation simulation(evaluationChip(), sim::SimConfig{});
    return simulation;
}

// --- bit-identity checks (determinism-contract assertions) -----------

/** Bit-compare two grids cell by cell, every RunResult member
 *  (fields::firstDifference); returns the mismatch count. */
inline int
compareGrids(const sim::SweepResult &a, const sim::SweepResult &b,
             const char *name_a, const char *name_b)
{
    int mismatches = 0;
    for (const auto &bench_name : a.benchmarks) {
        for (auto k : a.policies) {
            const std::string why = fields::firstDifference(
                a.at(bench_name, k), b.at(bench_name, k));
            if (!why.empty()) {
                std::fprintf(stderr,
                             "MISMATCH [%s / %s]: field %s differs "
                             "between %s and %s\n",
                             bench_name.c_str(), core::policyName(k),
                             why.c_str(), name_a, name_b);
                ++mismatches;
            }
        }
    }
    return mismatches;
}

} // namespace bench
} // namespace tg

#endif // TG_BENCH_BENCH_COMMON_HH
