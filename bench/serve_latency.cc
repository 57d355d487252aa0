/**
 * @file
 * Request-latency ladder for the persistent sweep server: what does
 * keeping a warm daemon buy over launching a fresh process per sweep?
 *
 * Three legs, all executing the identical quick mini-chip grid with
 * result memoization enabled:
 *
 *   cold process   re-exec this binary with a fresh, empty cache
 *                  directory — the full price of a one-shot CLI run
 *                  (process start, context build, every cell computed)
 *   daemon cold    first request against a freshly started tg::serve
 *                  daemon — same compute, but the process is already up
 *   daemon warm    repeat of the same request — answered from the
 *                  daemon's warm ArtifactStore and context cache
 *
 * Every leg's grid is checksummed over cache::encodeRunResult, and the
 * bench exits non-zero unless all legs are bit-identical AND the warm
 * daemon beats the cold process by >= 10x (the serve subsystem's
 * headline contract).
 */

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <unistd.h>
#include <vector>

#include "bench_common.hh"
#include "cache/serialize.hh"
#include "cache/store.hh"
#include "common/bytes.hh"
#include "serve/client.hh"
#include "serve/server.hh"
#include "shard/worker.hh"
#include "sim/sweep.hh"

namespace {

using namespace tg;

const std::vector<std::string> kBenchmarks = {"rayt", "fft", "lu_ncb",
                                              "water_s"};
const std::vector<core::PolicyKind> kPolicies = {
    core::PolicyKind::AllOn, core::PolicyKind::OracT};

/** The ladder's shared config: quick mini-chip run, memoization on. */
sim::SimConfig ladderConfig(const std::string &cacheDir)
{
    sim::SimConfig cfg;
    cfg.noiseSamples = 4;
    cfg.profilingEpochs = 8;
    cfg.memoizeResults = true;
    cfg.cacheDir = cacheDir;
    return cfg;
}

double secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/** FNV-1a over every cell's bit-exact encoding, in canonical order. */
std::uint64_t gridChecksum(const sim::SweepResult &grid)
{
    std::vector<std::uint8_t> all;
    for (const auto &row : grid.results)
        for (const auto &cell : row) {
            const std::vector<std::uint8_t> enc =
                cache::encodeRunResult(cell);
            all.insert(all.end(), enc.begin(), enc.end());
        }
    return bytes::fnv1a(all.data(), all.size());
}

/** Child mode: one fresh-process sweep; prints the grid checksum. */
int coldChild(const std::string &cacheDir, int jobs)
{
    floorplan::Chip chip = floorplan::buildMiniChip(1);
    sim::Simulation simulation(chip, ladderConfig(cacheDir));
    const sim::SweepResult grid = sim::runSweep(
        simulation, kBenchmarks, kPolicies, false, jobs);
    std::printf("checksum=%016" PRIx64 "\n", gridChecksum(grid));
    return 0;
}

std::string selfPath(const char *argv0)
{
    char buf[4096];
    const ssize_t n =
        ::readlink("/proc/self/exe", buf, sizeof buf - 1);
    if (n > 0) {
        buf[n] = '\0';
        return buf;
    }
    return argv0;
}

/**
 * Run one cold-process leg: re-exec this binary in --cold-child mode
 * against a fresh empty cache directory, capturing its checksum line.
 * Returns the wall time of the whole child (negative on failure).
 */
double runColdProcess(const std::string &binary, int jobs,
                      std::uint64_t &checksum)
{
    char dirTemplate[] = "/tmp/tg_serve_bench_cold.XXXXXX";
    if (!::mkdtemp(dirTemplate)) {
        std::perror("mkdtemp");
        return -1.0;
    }
    const std::string dir = dirTemplate;
    const std::string cmd = "'" + binary + "' --cold-child '" + dir +
                            "' --jobs " + std::to_string(jobs);

    const auto start = std::chrono::steady_clock::now();
    FILE *pipe = ::popen(cmd.c_str(), "r");
    if (!pipe) {
        std::perror("popen");
        std::filesystem::remove_all(dir);
        return -1.0;
    }
    char line[128] = {0};
    const bool gotLine = std::fgets(line, sizeof line, pipe) != nullptr;
    const int status = ::pclose(pipe);
    const double elapsed = secondsSince(start);
    std::filesystem::remove_all(dir);

    if (status != 0 || !gotLine ||
        std::sscanf(line, "checksum=%" SCNx64, &checksum) != 1) {
        std::fprintf(stderr,
                     "serve_latency: cold child failed (status %d)\n",
                     status);
        return -1.0;
    }
    return elapsed;
}

int runLadder(const std::string &binary, int jobs, int iterations)
{
    bench::banner("serve latency ladder",
                  "cold process vs warm tg::serve daemon, quick "
                  "mini-chip grid (" +
                      std::to_string(kBenchmarks.size() *
                                     kPolicies.size()) +
                      " cells, jobs " + std::to_string(jobs) + ")");

    // --- leg 1: fresh process per request ---------------------------
    std::uint64_t coldChecksum = 0;
    double coldBest = -1.0;
    for (int i = 0; i < iterations; ++i) {
        std::uint64_t sum = 0;
        const double t = runColdProcess(binary, jobs, sum);
        if (t < 0)
            return 1;
        if (i == 0)
            coldChecksum = sum;
        else if (sum != coldChecksum) {
            std::fprintf(stderr,
                         "serve_latency: cold-process checksums "
                         "disagree across iterations\n");
            return 1;
        }
        std::printf("cold process  iter %d   %8.1f ms\n", i,
                    t * 1e3);
        if (coldBest < 0 || t < coldBest)
            coldBest = t;
    }

    // --- legs 2+3: one daemon, cold then warm requests --------------
    char dirTemplate[] = "/tmp/tg_serve_bench_daemon.XXXXXX";
    if (!::mkdtemp(dirTemplate)) {
        std::perror("mkdtemp");
        return 1;
    }
    const std::string daemonDir = dirTemplate;

    serve::ServerOptions options;
    options.socketPath =
        daemonDir + "/tg_serve_bench." + std::to_string(::getpid()) +
        ".sock";
    options.jobs = jobs;
    serve::Server server(options);
    std::string err;
    if (!server.start(&err)) {
        std::fprintf(stderr, "serve_latency: %s\n", err.c_str());
        std::filesystem::remove_all(daemonDir);
        return 1;
    }

    serve::SweepMsg request;
    request.setup = shard::encodeBasicSetup(
        shard::ChipKind::Mini, 1, ladderConfig(daemonDir));
    request.benchmarks = kBenchmarks;
    for (auto pk : kPolicies)
        request.policies.push_back(static_cast<std::uint32_t>(pk));
    request.jobs = static_cast<std::uint32_t>(jobs);

    serve::Client client;
    if (!client.connect(server.socketPath(), &err)) {
        std::fprintf(stderr, "serve_latency: %s\n", err.c_str());
        return 1;
    }

    auto servedSweep = [&](double &elapsed,
                           std::uint64_t &checksum) -> bool {
        sim::SweepResult grid;
        const auto start = std::chrono::steady_clock::now();
        if (!client.sweep(request, grid, &err)) {
            std::fprintf(stderr, "serve_latency: %s\n", err.c_str());
            return false;
        }
        elapsed = secondsSince(start);
        checksum = gridChecksum(grid);
        return true;
    };

    double daemonCold = 0;
    std::uint64_t daemonColdSum = 0;
    if (!servedSweep(daemonCold, daemonColdSum))
        return 1;
    std::printf("daemon cold            %8.1f ms\n", daemonCold * 1e3);

    double warmBest = -1.0;
    std::uint64_t warmSum = 0;
    for (int i = 0; i < iterations; ++i) {
        double t = 0;
        std::uint64_t sum = 0;
        if (!servedSweep(t, sum))
            return 1;
        if (i == 0)
            warmSum = sum;
        else if (sum != warmSum) {
            std::fprintf(stderr, "serve_latency: warm checksums "
                                 "disagree across repeats\n");
            return 1;
        }
        std::printf("daemon warm   iter %d   %8.1f ms\n", i, t * 1e3);
        if (warmBest < 0 || t < warmBest)
            warmBest = t;
    }

    // The warm edge comes from the daemon's caches — show them.
    serve::StatsReplyMsg stats;
    if (client.stats(stats, &err)) {
        std::printf("\ndaemon counters: sweeps=%" PRIu64
                    " cells=%" PRIu64 " contexts built=%" PRIu64
                    " reused=%" PRIu64 "\n",
                    stats.requestsSweep, stats.cellsServed,
                    stats.contextsBuilt, stats.contextsReused);
        std::printf("%s\n", stats.store.describe().c_str());
        for (int k = 0; k < cache::kArtifactKinds; ++k) {
            const auto &pk =
                stats.store.kind[static_cast<std::size_t>(k)];
            std::printf("  %-11s hits=%" PRIu64 " misses=%" PRIu64
                        " inserts=%" PRIu64 " bytes=%" PRIu64
                        " evictions=%" PRIu64 "\n",
                        cache::artifactKindName(
                            static_cast<cache::ArtifactKind>(k)),
                        pk.hits, pk.misses, pk.inserts, pk.bytes,
                        pk.evictions);
        }
    }

    client.close();
    server.requestStop();
    server.wait();
    std::filesystem::remove_all(daemonDir);

    // --- verdicts ---------------------------------------------------
    int failures = 0;
    if (daemonColdSum != coldChecksum || warmSum != coldChecksum) {
        std::fprintf(stderr,
                     "serve_latency: MISMATCH — served grids are not "
                     "bit-identical to the cold process "
                     "(cold=%016" PRIx64 " daemon=%016" PRIx64
                     " warm=%016" PRIx64 ")\n",
                     coldChecksum, daemonColdSum, warmSum);
        ++failures;
    } else {
        std::printf("\nbit-identity: all legs agree "
                    "(checksum %016" PRIx64 ")\n",
                    coldChecksum);
    }

    const double ratio = warmBest > 0 ? coldBest / warmBest : 0.0;
    std::printf("ladder: cold process %.1f ms | daemon cold %.1f ms "
                "| daemon warm %.1f ms\n",
                coldBest * 1e3, daemonCold * 1e3, warmBest * 1e3);
    std::printf("warm daemon speedup over cold process: %.1fx\n",
                ratio);
    if (ratio < 10.0) {
        std::fprintf(stderr,
                     "serve_latency: FAIL — warm daemon must be >= "
                     "10x faster than a cold process\n");
        ++failures;
    }
    return failures ? 1 : 0;
}

} // namespace

int main(int argc, char **argv)
{
    const int jobs = [&] {
        const int j = bench::parseJobs(argc, argv);
        return j > 0 ? j : 4;
    }();
    for (int i = 1; i < argc; ++i)
        if (!std::strcmp(argv[i], "--cold-child") && i + 1 < argc)
            return coldChild(argv[i + 1], jobs);

    const int iterations =
        bench::parseIntFlag(argc, argv, "--iters", 3);
    return runLadder(selfPath(argv[0]), jobs, iterations);
}
