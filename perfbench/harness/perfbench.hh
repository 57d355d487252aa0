/**
 * @file
 * Shared pieces of the benchmark harness: timing and order
 * statistics, the metric sink, the span tracer, golden-digest
 * verification, provenance and the per-invocation context that the
 * workloads and layer probes fill in.
 *
 * The harness only calls the simulator's public API from outside;
 * every span it records wraps one such call, so the trace shows where
 * host time went without instrumenting the library itself.
 */

#ifndef TG_PERFBENCH_PERFBENCH_HH
#define TG_PERFBENCH_PERFBENCH_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include <memory>

#include "floorplan/power8.hh"
#include "sim/sweep.hh"
#include "sim/config.hh"
#include "sim/result.hh"

namespace tg {
namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** `s` as a JSON string literal (control characters dropped). */
std::string jsonQuote(const std::string &s);

/** Linear-interpolated quantile (q in [0, 1]); 0 for no samples. */
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/** Process CPU time (user + system) [s]. */
double processCpuSeconds();

/** Peak resident set size of the process [MB]. */
double peakRssMb();

/** CPUs this process may run on (what `nproc` prints). */
int onlineCpus();

/** Deterministic 64-bit generator (splitmix64) for seeded inputs. */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed) : state(seed) {}
    std::uint64_t next();
    /** Uniform integer in [0, n). */
    std::size_t below(std::size_t n) { return next() % n; }

    template <class T>
    void shuffle(std::vector<T> &v)
    {
        for (std::size_t i = v.size(); i > 1; --i)
            std::swap(v[i - 1], v[below(i)]);
    }

  private:
    std::uint64_t state;
};

/** Ordered name -> (value, unit) sink printed as the result line. */
class Metrics
{
  public:
    void set(const std::string &name, double value, const std::string &unit);
    bool has(const std::string &name) const;
    /** Copy in every metric of `other` this sink does not have yet. */
    void fillFrom(const Metrics &other);
    const std::vector<std::pair<std::string, std::pair<double, std::string>>> &
    all() const
    {
        return items;
    }

  private:
    std::vector<std::pair<std::string, std::pair<double, std::string>>> items;
};

// --- tracing -------------------------------------------------------------

/**
 * In-memory span recorder. Off unless enabled; a disabled Span costs
 * one relaxed load. Spans nest per thread (the parent defaults to the
 * thread's innermost open span) and carry a request id shared by every
 * span of one request; cross-thread parents are passed explicitly.
 */
class Tracer
{
  public:
    struct Record
    {
        const char *name;
        std::uint64_t id;
        std::uint64_t parent;
        std::uint64_t req;
        int tid;
        std::int64_t t0Ns;
        std::int64_t t1Ns;
    };

    static Tracer &instance();

    void enable(bool on) { enabledFlag.store(on, std::memory_order_relaxed); }
    bool enabled() const { return enabledFlag.load(std::memory_order_relaxed); }

    std::uint64_t newId() { return nextId.fetch_add(1) + 1; }
    void add(const Record &r);
    std::size_t count() const;
    /** Drop records past the first `n` (calibration spans). */
    void truncate(std::size_t n);

    /** Chrome trace-event JSON (opens in Perfetto / chrome://tracing). */
    bool writeChromeJson(const std::string &path,
                         const std::string &provenanceJson) const;

    /** Per-name count, total and self time, largest self time first. */
    std::string selfTimeTable() const;

  private:
    std::atomic<bool> enabledFlag{false};
    std::atomic<std::uint64_t> nextId{0};
    mutable std::mutex mu;
    std::vector<Record> records;
};

class Span
{
  public:
    /** Child of this thread's innermost open span (if any). */
    explicit Span(const char *name, std::uint64_t req = 0);
    /** Explicit parent and request id (spans crossing threads). */
    Span(const char *name, std::uint64_t parent, std::uint64_t req);
    ~Span();

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    std::uint64_t id() const { return rec.id; }

  private:
    void open(const char *name, std::uint64_t parent, std::uint64_t req);

    bool active = false;
    Tracer::Record rec{};
    Span *outer = nullptr;
};

/**
 * Record a span whose bounds were observed rather than scoped: a sweep
 * cell runs inside the library, so its span runs from the worker's
 * previous emit to this one.
 */
void addSyntheticSpan(const char *name, std::uint64_t parent,
                      std::uint64_t req, int tid, Clock::time_point t0,
                      Clock::time_point t1);

// --- golden digests ------------------------------------------------------

/** FNV-1a 64 of cache::encodeRunResult(r): the per-cell result digest. */
std::uint64_t resultDigest(const sim::RunResult &r);

std::string hex64(std::uint64_t v);

/**
 * Recorded per-cell digests, grouped by universe (one per workload and
 * size). Every universe also carries a digest over its cells' digests
 * in key order, which load() re-derives to catch a damaged file.
 */
class Goldens
{
  public:
    bool load(const std::string &path, std::string *err);
    bool save(const std::string &path) const;

    void put(const std::string &universe, const std::string &key,
             std::uint64_t digest);
    /** Nullptr when the universe holds no such key. */
    const std::uint64_t *find(const std::string &universe,
                              const std::string &key) const;
    std::uint64_t universeDigest(const std::string &universe) const;

    /** Flip one recorded digest of `universe` (tests of the checker). */
    void corruptFirst(const std::string &universe);

  private:
    std::map<std::string, std::map<std::string, std::uint64_t>> cells;
};

/** Thread-safe tally of verified operations. */
class Verifier
{
  public:
    explicit Verifier(const Goldens &g) : goldens(g) {}

    /** Count one operation; true when `digest` matches the golden. */
    bool check(const std::string &universe, const std::string &key,
               std::uint64_t digest);
    /** Count one operation with a caller-decided outcome. */
    void record(bool ok, const std::string &what);

    std::uint64_t attempted() const { return nAttempted.load(); }
    std::uint64_t failed() const { return nFailed.load(); }

  private:
    const Goldens &goldens;
    std::atomic<std::uint64_t> nAttempted{0};
    std::atomic<std::uint64_t> nFailed{0};
    std::atomic<int> reported{0};
};

// --- invocation context --------------------------------------------------

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 0.0; //!< required: run.py passes BENCHMARK.json's
    bool trace = false;
    bool smoke = false;
    bool corruptGolden = false;
    std::string goldensPath;
    std::string recordGoldensPath;
    std::string workDir = ".bench_build/work";
    std::string traceOut;
    std::string revision = "unknown";
};

/** Everything one invocation shares between workloads and probes. */
struct Context
{
    Options opt;
    int nproc = 1;
    floorplan::Chip chip;
    Goldens goldens;
    Verifier *verifier = nullptr;
    Metrics e2e;   //!< end-to-end metrics (untraced result)
    Metrics layer; //!< per-layer metrics (traced result)

    /** Universe name of a workload at the current size. */
    std::string universe(const std::string &workload) const
    {
        return opt.smoke ? "smoke/" + workload : workload;
    }
};

// --- simulator set-up shared by workloads, probes and golden recording ----

/** Default sampling (32 x 600 cycles, 200 warm-up); memoization off. */
sim::SimConfig defaultConfig(bool smoke, int jobs);
/** The paper's sampling (200 x 2000 cycles, 1000 warm-up). */
sim::SimConfig paperConfig(bool smoke, int jobs);
floorplan::Chip buildChip(bool smoke);

std::vector<std::string> gridBenchmarks(bool smoke);
std::vector<core::PolicyKind> gridPolicies(bool smoke);
std::vector<std::string> paperBenchmarks(bool smoke);
const std::vector<core::PolicyKind> &paperPolicies();

/** One served tuple of serve-mixed (thermal-only run). */
struct ServeTuple
{
    std::string benchmark;
    core::PolicyKind policy{};
    int trackVr = -1;
    std::string key() const;
};
/** Novel tuples of the mixed load: benchmark x policy x tracked VR. */
std::vector<ServeTuple> servePool(bool smoke);
/** AllOn/PracVT tuples of idle single-user block 0 (before the load)
 *  or 1 (after it); disjoint from the pool and from each other. */
std::vector<ServeTuple> serveIdleTuples(bool smoke, int block);

/** Golden key of a (benchmark, policy) cell. */
std::string cellKey(const std::string &benchmark, core::PolicyKind p);
/** Metric-name form of a policy ("allon", "pracvt", ...). */
std::string policySlug(core::PolicyKind p);

/** Compute every universe and write the goldens file. */
int recordGoldens(Context &ctx);

/**
 * Cold set-up times of one invocation. Set-up takes a fraction of a
 * second, while the host's speed wanders on a scale of about a second,
 * so repetitions taken back to back all see one host state. Each
 * workload therefore times a block of repetitions before its load and
 * one after it, and, where its load has pauses, one more at every
 * pause that a SetupSampler finds due; setup_s is the median over all
 * of them.
 */
struct SetupTimes
{
    std::vector<double> total; //!< whole set-up [s]
    std::vector<double> ctor;  //!< Simulation constructor [s]
    std::vector<double> calib; //!< predictor calibration [s]
};

/** Set-up repetitions per block. */
int setupReps(const Context &ctx);

/**
 * One cold construction plus predictor calibration. The artifact store
 * is switched off meanwhile, so the predictor is fitted from scratch
 * and the store keeps what the load put there. Appends to `times`.
 */
std::unique_ptr<sim::Simulation> coldSetup(const Context &ctx,
                                           const sim::SimConfig &cfg,
                                           SetupTimes &times);

/** setupReps() cold set-ups back to back; returns the last Simulation. */
std::unique_ptr<sim::Simulation> setupBlock(const Context &ctx,
                                            const sim::SimConfig &cfg,
                                            SetupTimes &times);

/** setup_s, and sim.ctor_s / sim.calibrate_s when timed: medians. */
void reportSetup(Context &ctx, const SetupTimes &times);

/** Takes one set-up repetition at a pause of the load when one is due. */
class SetupSampler
{
  public:
    /** `rep` runs and records one cold set-up. */
    explicit SetupSampler(std::function<void()> rep);

    /** Runs `rep` when the previous one ended kGapS ago or more. */
    void atPause();

    /** Wall and process CPU time spent at pauses, which the load
     *  leaves out of its own totals [s]. */
    double wallS = 0.0;
    double cpuS = 0.0;

  private:
    static constexpr double kGapS = 0.5;
    std::function<void()> rep;
    Clock::time_point lastEnd;
};

/** One timed sweep over every cell of benches x policies. */
struct SweepPass
{
    double wallS = 0.0;
    std::vector<sim::RunResult> results; //!< canonical cell order
    std::vector<double> cellMs;          //!< per cell, from emit gaps
    double busyFrac = 0.0; //!< worker time until last emit / (workers x wall)
    double tailS = 0.0;    //!< wall minus the earliest worker's last emit
    /** Summed cell time over wall: the speed-up over running the same
     *  cells back to back, at the cell costs seen under contention. */
    double parallelism = 0.0;
};

SweepPass timedSweep(sim::Simulation &s,
                     const std::vector<std::string> &benches,
                     const std::vector<core::PolicyKind> &policies, int jobs,
                     sim::SweepContexts *contexts);

// --- workloads and probes --------------------------------------------------

void runGridDefault(Context &ctx);
void runRunPaper(Context &ctx);
void runServeMixed(Context &ctx);

/** What a workload leaves behind for the layer probes. */
struct ProbeInputs
{
    const sim::SimConfig *cfg = nullptr; //!< the workload's sampling
    bool paperSampling = false;
    /** fft run time at jobs = nproc per policy, when the load has it. */
    std::map<core::PolicyKind, double> jobsNMs;
};

/**
 * Per-layer probes: time calls into each module's public functions
 * on small fixed inputs and fill every per-layer metric the workload
 * itself did not measure.
 */
void runLayerProbes(Context &ctx, const ProbeInputs &in);

/**
 * Single-client exchange with a fresh daemon: fills the serve-layer
 * and memo metrics on workloads that do not serve.
 */
void runServeProbe(Context &ctx);

} // namespace perfbench
} // namespace tg

#endif // TG_PERFBENCH_PERFBENCH_HH
