/**
 * @file
 * Sharded multi-process sweep over serve endpoints.
 *
 * runShardedSweep() partitions the (benchmark x policy) grid into
 * guided-size shards (shard/partition.hh) and runs them across N
 * endpoint processes. An endpoint is the current binary re-exec'ed
 * with a hidden `--tg-endpoint` argument: it runs a serve::Server on
 * one inherited socketpair end as its only connection, then drains
 * and exits once that connection closes, so a coordinator that dies
 * cannot leave orphans. A participating binary's main() starts with
 *
 *     if (serve::isEndpointInvocation(argc, argv))
 *         return serve::endpointMain(argc, argv);
 *
 * The coordinator is a multi-endpoint serve client. Each shard goes
 * to an idle endpoint as one ServeSweep carrying its cell list;
 * results stream back as ServeCell frames and merge into their
 * canonical grid slot (placeCell); ServeDone{Ok} frees the endpoint.
 *
 * Determinism contract: every cell's RunResult is a deterministic
 * function of (chip, config, benchmark, policy, opts) alone and the
 * codec is bit-exact, so the merged SweepResult is bit-identical to
 * a single-process runSweep() — regardless of endpoint count, shard
 * sizing, arrival order, or which endpoint ran which shard.
 *
 * Fault handling: an endpoint that exits, closes its socket, corrupts
 * its stream, or leaves a Ping unanswered for timeoutMs is killed and
 * its unacknowledged cells (assigned minus received) are re-queued
 * at the front for the survivors. A cell computed twice yields the
 * same bits and the merge is keyed by cell, so reassignment can never
 * skew the result. A ServeDone other than Ok ends the sweep with the
 * endpoint's error text: the same request would fail on every
 * endpoint. When the last endpoint dies with work outstanding the
 * sweep fatals rather than returning a partial grid.
 *
 * Test hook: TG_SHARD_TEST_DIE="<endpoint>:<afterCells>[:stop]" makes
 * the coordinator SIGKILL (with `:stop`, SIGSTOP) endpoint
 * `<endpoint>` when its (afterCells+1)-th cell arrives, before that
 * cell is merged. The crash and hang reassignment tests use it.
 */

#ifndef TG_SERVE_COORDINATOR_HH
#define TG_SERVE_COORDINATOR_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/sweep.hh"

namespace tg {
namespace serve {

/** Knobs of one sharded sweep. */
struct ShardedSweepOptions
{
    /** Grid; empty defaults match runSweep (all 14 SPLASH-2x
     *  profiles x the paper's full policy set). */
    std::vector<std::string> benchmarks;
    std::vector<core::PolicyKind> policies;

    /** Simulation context every endpoint rebuilds
     *  (shard::encodeBasicSetup blob). */
    std::vector<std::uint8_t> setup;

    /** Endpoint process count (clamped to >= 1). */
    int processes = 2;

    /** Threads inside each endpoint (its server's fan-out width and
     *  every shard's ServeSweep jobs); 0 defers to the endpoint-side
     *  TG_JOBS / hardware ladder. */
    int jobsPerWorker = 1;

    /** RecordOptions forwarded to every cell. Scalar fields travel
     *  on the wire; faultScenario must stay null (an endpoint
     *  rebuilds its context from `setup` alone). */
    sim::RecordOptions opts;

    /** Kill a busy endpoint that leaves a Ping unanswered this long
     *  [ms]; 0 disables pinging (exit/EOF detection still applies). */
    int timeoutMs = 30000;
};

/** Observable outcomes of a sharded sweep (tests, logs). */
struct ShardedSweepStats
{
    int workersSpawned = 0;
    int workerDeaths = 0;    //!< exits, EOFs, corruption, timeouts
    int shardsPlanned = 0;   //!< initial partition size
    int shardsDispatched = 0;
    int shardsReassigned = 0; //!< re-queued remnants of dead endpoints
    std::size_t cellsTotal = 0;
    std::size_t duplicateCells = 0; //!< cells received more than once
};

/**
 * Run the grid across endpoint processes and merge. Blocks until
 * every cell has been received (or fatals when no endpoint survives
 * or one rejects its shard).
 */
sim::SweepResult runShardedSweep(const ShardedSweepOptions &options,
                                 ShardedSweepStats *stats = nullptr);

/** True when argv carries the hidden endpoint-mode argument. */
bool isEndpointInvocation(int argc, char **argv);

/**
 * Serve the inherited connection named by the endpoint-mode argv
 * until the coordinator closes it. Returns the process exit code.
 */
int endpointMain(int argc, char **argv);

} // namespace serve
} // namespace tg

#endif // TG_SERVE_COORDINATOR_HH
