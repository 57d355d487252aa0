/**
 * @file
 * Benchmark harness entry point. Normally launched by perfbench/run.py,
 * which builds it first:
 *
 *   perfbench_harness --workload grid-default|run-paper|serve-mixed
 *                     --seed N --seconds S --trace 0|1 --goldens FILE
 *                     [--smoke] [--corrupt-golden] [--work-dir DIR]
 *                     [--trace-out FILE] [--revision REV]
 *   perfbench_harness --record-goldens FILE
 *
 * The last stdout line is the result object
 *   {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}
 * holding the end-to-end metrics, or with --trace 1 the per-layer ones.
 */

#include <unistd.h>

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "cache/store.hh"
#include "perfbench.hh"

#ifndef PB_TG_ARCH
#define PB_TG_ARCH "unknown"
#endif
#ifndef PB_BUILD_TYPE
#define PB_BUILD_TYPE "unknown"
#endif

namespace {

using namespace tg::perfbench;

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench_harness: %s\n"
                 "usage: perfbench_harness --workload NAME --seed N "
                 "--seconds S --trace 0|1 --goldens FILE [--smoke] "
                 "[--corrupt-golden] [--work-dir DIR] [--trace-out FILE] "
                 "[--revision REV]\n"
                 "       perfbench_harness --record-goldens FILE\n",
                 why);
    return 2;
}

bool
parse(int argc, char **argv, Options &o, std::string *err)
{
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc) {
                *err = "missing value after " + a;
                return nullptr;
            }
            return argv[++i];
        };
        const char *v = nullptr;
        if (a == "--smoke") {
            o.smoke = true;
        } else if (a == "--corrupt-golden") {
            o.corruptGolden = true;
        } else if (!(v = value())) {
            return false;
        } else if (a == "--workload") {
            o.workload = v;
        } else if (a == "--seed") {
            o.seed = std::strtoull(v, nullptr, 10);
        } else if (a == "--seconds") {
            o.seconds = std::atof(v);
        } else if (a == "--trace") {
            o.trace = std::atoi(v) != 0;
        } else if (a == "--goldens") {
            o.goldensPath = v;
        } else if (a == "--record-goldens") {
            o.recordGoldensPath = v;
        } else if (a == "--work-dir") {
            o.workDir = v;
        } else if (a == "--trace-out") {
            o.traceOut = v;
        } else if (a == "--revision") {
            o.revision = v;
        } else {
            *err = "unknown argument " + a;
            return false;
        }
    }
    return true;
}

std::string
provenance(const Context &ctx)
{
    char host[256] = "unknown";
    ::gethostname(host, sizeof host - 1);
    const char *tgJobs = std::getenv("TG_JOBS");
    char buf[1024];
    std::snprintf(
        buf, sizeof buf,
        "{\"host\":%s,\"nproc\":%d,\"jobs\":%d,\"TG_JOBS\":%s,"
        "\"TG_ARCH\":%s,\"compiler\":%s,\"build_type\":%s,"
        "\"revision\":%s,\"workload\":%s,\"seed\":%" PRIu64
        ",\"seconds\":%g,\"trace\":%d,\"smoke\":%d,\"golden_digest\":%s}",
        jsonQuote(host).c_str(), ctx.nproc, ctx.nproc,
        tgJobs ? jsonQuote(tgJobs).c_str() : "null",
        jsonQuote(PB_TG_ARCH).c_str(),
        jsonQuote(std::string("gcc ") + __VERSION__).c_str(),
        jsonQuote(PB_BUILD_TYPE).c_str(), jsonQuote(ctx.opt.revision).c_str(),
        jsonQuote(ctx.opt.workload).c_str(), ctx.opt.seed, ctx.opt.seconds,
        ctx.opt.trace ? 1 : 0, ctx.opt.smoke ? 1 : 0,
        jsonQuote(hex64(ctx.goldens.universeDigest(
                       ctx.universe(ctx.opt.workload))))
            .c_str());
    return buf;
}

/** Name of the first NaN or infinite metric; empty when all are finite. */
std::string
firstNonFinite(const Metrics &m)
{
    for (const auto &[name, vu] : m.all())
        if (!std::isfinite(vu.first))
            return name;
    return {};
}

std::string
metricsJson(const Metrics &m)
{
    std::string out = "{";
    char buf[128];
    for (const auto &[name, vu] : m.all()) {
        std::snprintf(buf, sizeof buf, "%.17g", vu.first);
        if (out.size() > 1)
            out += ", ";
        out += jsonQuote(name) + ": {\"value\": " + buf +
               ", \"unit\": " + jsonQuote(vu.second) + "}";
    }
    return out + "}";
}

/**
 * Tracing cost per span, measured by recording and discarding a burst
 * of empty spans; times the spans the run recorded gives the share of
 * host time the tracer itself took.
 */
double
tracingOverheadFrac(double wallS)
{
    Tracer &t = Tracer::instance();
    const std::size_t kept = t.count();
    constexpr int kBurst = 20000;
    const auto t0 = Clock::now();
    for (int i = 0; i < kBurst; ++i)
        Span s("trace.calibrate");
    const double perSpan = secondsSince(t0) / kBurst;
    t.truncate(kept);
    return static_cast<double>(kept) * perSpan / wallS;
}

} // namespace

int
main(int argc, char **argv)
{
    const auto start = Clock::now();
    Context ctx;
    std::string err;
    if (!parse(argc, argv, ctx.opt, &err))
        return usage(err.c_str());
    ctx.nproc = onlineCpus();

    if (!ctx.opt.recordGoldensPath.empty())
        return recordGoldens(ctx);

    if (ctx.opt.workload != "grid-default" && ctx.opt.workload != "run-paper" &&
        ctx.opt.workload != "serve-mixed")
        return usage(("unknown workload '" + ctx.opt.workload + "'").c_str());
    if (ctx.opt.goldensPath.empty())
        return usage("--goldens is required");
    if (!(ctx.opt.seconds > 0))
        return usage("--seconds must be given and positive");
    if (!ctx.goldens.load(ctx.opt.goldensPath, &err)) {
        std::fprintf(stderr, "perfbench_harness: %s\n", err.c_str());
        return 2;
    }
    if (ctx.opt.corruptGolden)
        ctx.goldens.corruptFirst(ctx.universe(ctx.opt.workload));
    std::filesystem::create_directories(ctx.opt.workDir);

    ctx.chip = buildChip(ctx.opt.smoke);
    Verifier verifier(ctx.goldens);
    ctx.verifier = &verifier;
    Tracer::instance().enable(ctx.opt.trace);
    const std::string prov = provenance(ctx);
    std::printf("provenance %s\n", prov.c_str());
    std::fflush(stdout);

    if (ctx.opt.workload == "grid-default")
        runGridDefault(ctx);
    else if (ctx.opt.workload == "run-paper")
        runRunPaper(ctx);
    else
        runServeMixed(ctx);

    const double attempted = static_cast<double>(verifier.attempted());
    if (!ctx.e2e.has("peak_rss_mb"))
        ctx.e2e.set("peak_rss_mb", peakRssMb(), "MB");
    ctx.e2e.set("ok_frac",
                attempted > 0 ? 1.0 - static_cast<double>(verifier.failed()) /
                                          attempted
                              : 0.0,
                "ratio");

    if (ctx.opt.trace)
        ctx.layer.set("trace.overhead_frac",
                      tracingOverheadFrac(secondsSince(start)), "ratio");
    // A broken metric is a harness error, never a plausible 0.
    for (const Metrics *m : {&ctx.e2e, &ctx.layer}) {
        const std::string bad = firstNonFinite(*m);
        if (!bad.empty()) {
            std::fprintf(stderr, "perfbench_harness: metric %s is not finite\n",
                         bad.c_str());
            return 1;
        }
    }

    if (ctx.opt.trace) {
        std::printf("%s", Tracer::instance().selfTimeTable().c_str());
        if (!ctx.opt.traceOut.empty()) {
            if (Tracer::instance().writeChromeJson(ctx.opt.traceOut, prov))
                std::printf("trace written to %s (%zu spans)\n",
                            ctx.opt.traceOut.c_str(),
                            Tracer::instance().count());
            else
                std::fprintf(stderr, "perfbench: cannot write %s\n",
                             ctx.opt.traceOut.c_str());
        }
        // The untraced run's metrics as this traced run saw them: the
        // difference from an untraced run is the tracing overhead.
        std::printf("traced-e2e %s\n", metricsJson(ctx.e2e).c_str());
    }
    std::printf("store %s\n", tg::cache::store().stats().describe().c_str());

    std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
                ", \"failed\": %" PRIu64 ", \"metrics\": %s}\n",
                verifier.failed() == 0 ? "true" : "false",
                verifier.attempted(), verifier.failed(),
                metricsJson(ctx.opt.trace ? ctx.layer : ctx.e2e).c_str());
    std::fflush(stdout);
    return 0;
}
