/**
 * @file
 * CLI client of the persistent sweep daemon.
 *
 *     tg_client [--socket PATH] [--wait MS] ping
 *     tg_client [--socket PATH] [--wait MS] stats
 *     tg_client [--socket PATH] [--wait MS] shutdown
 *     tg_client [--socket PATH] [--wait MS] sweep [--quick] [--jobs N]
 *               [--verify] [--deadline MS]
 *
 * `sweep` submits the benchmark x policy grid (the full POWER8
 * evaluation grid, or a small mini-chip grid with --quick) and prints
 * one line per returned cell. --verify recomputes the same grid
 * in-process and asserts the served results are bit-identical —
 * byte-for-byte over cache::encodeRunResult — exiting non-zero on
 * any mismatch; the CI smoke leg runs exactly that.
 *
 * --wait MS retries the connection with backoff until the daemon
 * answers a ping (riding out a booting server); --deadline MS asks
 * the server to abandon the request once the budget elapses.
 *
 * Exit codes distinguish failure classes for scripting:
 *   0 success        3 server busy (retry later)
 *   1 request error  4 cannot connect
 *   2 usage          5 cancelled / deadline expired
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "cache/serialize.hh"
#include "common/counters.hh"
#include "serve/client.hh"
#include "shard/worker.hh"
#include "sim/sweep.hh"
#include "workload/profile.hh"

namespace {

using namespace tg;

// Exit codes (see the file header).
constexpr int kExitOk = 0;
constexpr int kExitError = 1;
constexpr int kExitUsage = 2;
constexpr int kExitBusy = 3;
constexpr int kExitConnect = 4;
constexpr int kExitCancelled = 5;

int usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s [--socket PATH] [--wait MS] "
                 "<ping|stats|shutdown|sweep> "
                 "[--quick] [--jobs N] [--verify] [--deadline MS]\n",
                 argv0);
    return kExitUsage;
}

/** Map a failed request's DoneMsg to the scripting exit code. */
int exitCodeFor(const serve::DoneMsg &done)
{
    switch (static_cast<serve::DoneStatus>(done.status)) {
    case serve::DoneStatus::Busy:
        return kExitBusy;
    case serve::DoneStatus::Cancelled:
    case serve::DoneStatus::DeadlineExpired:
        return kExitCancelled;
    default:
        return kExitError;
    }
}

void printStats(const serve::StatsReplyMsg &s)
{
    auto row = [](const char *name, std::uint64_t value) {
        std::printf("%-19s %llu\n", name,
                    static_cast<unsigned long long>(value));
    };
    counters::forEachCounter(s, row);
    counters::forEachCounter(s.store, row);
    for (int k = 0; k < cache::kArtifactKinds; ++k) {
        std::printf("%-11s", cache::artifactKindName(
                                 static_cast<cache::ArtifactKind>(k)));
        counters::forEachCounter(
            s.store.kind[static_cast<std::size_t>(k)],
            [](const char *name, std::uint64_t value) {
                std::printf(" %s=%llu", name,
                            static_cast<unsigned long long>(value));
            });
        std::printf("\n");
    }
}

/** The sweep the CLI submits: grid, setup blob and local replica. */
struct SweepPlan
{
    serve::SweepMsg request;
    shard::ChipKind kind = shard::ChipKind::Power8;
    int chipArg = 0;
    sim::SimConfig cfg;
};

SweepPlan makePlan(bool quick, int jobs)
{
    SweepPlan plan;
    if (quick) {
        plan.kind = shard::ChipKind::Mini;
        plan.chipArg = 1;
        plan.cfg.noiseSamples = 4;
        plan.cfg.profilingEpochs = 8;
        plan.request.benchmarks = {"rayt", "fft"};
        plan.request.policies = {
            static_cast<std::uint32_t>(core::PolicyKind::AllOn),
            static_cast<std::uint32_t>(core::PolicyKind::OracT)};
    } else {
        for (const auto &p : workload::splashProfiles())
            plan.request.benchmarks.push_back(p.name);
        for (auto pk : core::allPolicyKinds())
            plan.request.policies.push_back(
                static_cast<std::uint32_t>(pk));
    }
    plan.request.setup =
        shard::encodeBasicSetup(plan.kind, plan.chipArg, plan.cfg);
    plan.request.jobs = static_cast<std::uint32_t>(
        jobs > 0 ? jobs : 1);
    return plan;
}

/** Byte-compare every served cell against a local recompute. */
int verifySweep(const SweepPlan &plan, const sim::SweepResult &served)
{
    floorplan::Chip chip =
        plan.kind == shard::ChipKind::Power8
            ? floorplan::buildPower8Chip()
            : floorplan::buildMiniChip(plan.chipArg);
    sim::Simulation simulation(chip, plan.cfg);
    sim::SweepResult local = sim::runSweep(
        simulation, served.benchmarks, served.policies, false,
        static_cast<int>(plan.request.jobs));
    std::size_t mismatches = 0;
    for (std::size_t b = 0; b < served.benchmarks.size(); ++b) {
        for (std::size_t p = 0; p < served.policies.size(); ++p) {
            if (cache::encodeRunResult(served.results[b][p]) !=
                cache::encodeRunResult(local.results[b][p])) {
                std::fprintf(stderr,
                             "verify: MISMATCH at [%s / %s]\n",
                             served.benchmarks[b].c_str(),
                             core::policyName(served.policies[p]));
                ++mismatches;
            }
        }
    }
    if (mismatches) {
        std::fprintf(stderr,
                     "verify: %zu cells differ from the local "
                     "recompute\n",
                     mismatches);
        return 1;
    }
    std::printf("verify: served grid is bit-identical to the local "
                "recompute\n");
    return 0;
}

} // namespace

int main(int argc, char **argv)
{
    std::string socketArg;
    std::string command;
    bool quick = false;
    bool verify = false;
    int jobs = 1;
    long waitMs = 0;
    long deadlineMs = 0;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--socket" && i + 1 < argc)
            socketArg = argv[++i];
        else if (arg == "--quick")
            quick = true;
        else if (arg == "--verify")
            verify = true;
        else if (arg == "--jobs" && i + 1 < argc)
            jobs = std::atoi(argv[++i]);
        else if (arg == "--wait" && i + 1 < argc)
            waitMs = std::atol(argv[++i]);
        else if (arg == "--deadline" && i + 1 < argc)
            deadlineMs = std::atol(argv[++i]);
        else if (command.empty() && arg[0] != '-')
            command = arg;
        else
            return usage(argv[0]);
    }
    if (command.empty() || waitMs < 0 || deadlineMs < 0)
        return usage(argv[0]);

    const std::string path = serve::resolveSocketPath(socketArg);
    serve::Client client;
    std::string err;
    const bool up =
        waitMs > 0
            ? client.connectWithRetry(
                  path, static_cast<std::uint64_t>(waitMs), &err)
            : client.connect(path, &err);
    if (!up) {
        std::fprintf(stderr, "tg_client: %s\n", err.c_str());
        return kExitConnect;
    }

    if (command == "ping") {
        if (!client.ping(&err)) {
            std::fprintf(stderr, "tg_client: %s\n", err.c_str());
            return kExitError;
        }
        std::printf("pong (%s)\n", path.c_str());
        return kExitOk;
    }
    if (command == "stats") {
        serve::StatsReplyMsg stats;
        if (!client.stats(stats, &err)) {
            std::fprintf(stderr, "tg_client: %s\n", err.c_str());
            return kExitError;
        }
        printStats(stats);
        return kExitOk;
    }
    if (command == "shutdown") {
        if (!client.shutdownServer(&err)) {
            std::fprintf(stderr, "tg_client: %s\n", err.c_str());
            return kExitError;
        }
        std::printf("server draining\n");
        return kExitOk;
    }
    if (command == "sweep") {
        SweepPlan plan = makePlan(quick, jobs);
        plan.request.deadlineMs =
            static_cast<std::uint64_t>(deadlineMs);
        sim::SweepResult served;
        serve::DoneMsg done;
        if (!client.sweep(plan.request, served, &err, &done)) {
            std::fprintf(stderr, "tg_client: %s\n", err.c_str());
            return exitCodeFor(done);
        }
        for (const auto &bench : served.benchmarks)
            for (auto pk : served.policies)
                std::printf("%s\n",
                            sim::progressLine(served.at(bench, pk))
                                .c_str());
        if (verify)
            return verifySweep(plan, served);
        return kExitOk;
    }
    return usage(argv[0]);
}
