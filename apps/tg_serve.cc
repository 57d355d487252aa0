/**
 * @file
 * The persistent sweep daemon.
 *
 *     tg_serve [--socket PATH] [--jobs N] [--queue-depth N]
 *              [--verbose]
 *
 * Listens on a Unix-domain socket (--socket, else $TG_SERVE_SOCKET,
 * else /tmp/tg_serve.<uid>.sock) and answers tg_client requests until
 * a client sends Shutdown or the process receives SIGINT/SIGTERM —
 * both drain queued requests and flush replies before exiting.
 *
 * --queue-depth bounds the admission queue: requests beyond it get
 * an immediate busy reply carrying a 200 ms retry hint instead of
 * waiting in an unbounded line.
 *
 * The daemon's value is what stays warm between requests: thermal and
 * PDN factorisations, the calibrated predictor, per-worker Simulation
 * contexts and the in-memory ArtifactStore (plus the TG_CACHE_DIR
 * disk tier when configured). See DESIGN.md "Sweep server".
 */

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "serve/server.hh"

namespace {

tg::serve::Server *g_server = nullptr;

void onSignal(int)
{
    // requestStop is async-signal-safe: an atomic store plus a
    // self-pipe write.
    if (g_server)
        g_server->requestStop();
}

int usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s [--socket PATH] [--jobs N] "
                 "[--queue-depth N] [--verbose]\n",
                 argv0);
    return 2;
}

} // namespace

int main(int argc, char **argv)
{
    tg::serve::ServerOptions options;
    std::string socketArg;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--socket" && i + 1 < argc) {
            socketArg = argv[++i];
        } else if (arg == "--jobs" && i + 1 < argc) {
            options.jobs = std::atoi(argv[++i]);
        } else if (arg == "--queue-depth" && i + 1 < argc) {
            options.maxQueueDepth = std::atoi(argv[++i]);
        } else if (arg == "--verbose") {
            options.verbose = true;
        } else {
            return usage(argv[0]);
        }
    }
    options.socketPath = tg::serve::resolveSocketPath(socketArg);

    tg::serve::Server server(options);
    std::string err;
    if (!server.start(&err)) {
        std::fprintf(stderr, "tg_serve: %s\n", err.c_str());
        return 1;
    }
    g_server = &server;
    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSignal);

    std::fprintf(stderr, "tg_serve: ready on %s\n",
                 server.socketPath().c_str());
    server.wait();
    g_server = nullptr;
    std::fprintf(stderr, "tg_serve: drained, exiting\n");
    return 0;
}
