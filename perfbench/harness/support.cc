#include "perfbench.hh"

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "cache/serialize.hh"
#include "common/bytes.hh"
#include "core/policy.hh"
#include "workload/profile.hh"

namespace tg {
namespace perfbench {

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

double
processCpuSeconds()
{
    rusage ru{};
    ::getrusage(RUSAGE_SELF, &ru);
    auto secs = [](const timeval &t) {
        return static_cast<double>(t.tv_sec) +
               static_cast<double>(t.tv_usec) * 1e-6;
    };
    return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double
peakRssMb()
{
    rusage ru{};
    ::getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // ru_maxrss: KiB
}

int
onlineCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (::sched_getaffinity(0, sizeof set, &set) == 0) {
        const int n = CPU_COUNT(&set);
        if (n > 0)
            return n;
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? static_cast<int>(hw) : 1;
}

std::uint64_t
Rng::next()
{
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

void
Metrics::set(const std::string &name, double value, const std::string &unit)
{
    for (auto &item : items)
        if (item.first == name) {
            item.second = {value, unit};
            return;
        }
    items.push_back({name, {value, unit}});
}

bool
Metrics::has(const std::string &name) const
{
    for (const auto &item : items)
        if (item.first == name)
            return true;
    return false;
}

void
Metrics::fillFrom(const Metrics &other)
{
    for (const auto &[name, v] : other.items)
        if (!has(name))
            items.push_back({name, v});
}

// --- tracing -------------------------------------------------------------

namespace {

thread_local Span *tlsInnermost = nullptr;
thread_local int tlsTid = -1;
std::atomic<int> nextTid{0};

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

int
threadId()
{
    if (tlsTid < 0)
        tlsTid = nextTid.fetch_add(1);
    return tlsTid;
}

} // namespace

std::string
jsonQuote(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out.push_back('\\');
        if (static_cast<unsigned char>(c) >= 0x20)
            out.push_back(c);
    }
    return out + "\"";
}

Tracer &
Tracer::instance()
{
    static Tracer t;
    return t;
}

void
Tracer::add(const Record &r)
{
    std::lock_guard<std::mutex> lock(mu);
    records.push_back(r);
}

std::size_t
Tracer::count() const
{
    std::lock_guard<std::mutex> lock(mu);
    return records.size();
}

void
Tracer::truncate(std::size_t n)
{
    std::lock_guard<std::mutex> lock(mu);
    if (records.size() > n)
        records.resize(n);
}

bool
Tracer::writeChromeJson(const std::string &path,
                        const std::string &provenanceJson) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    std::lock_guard<std::mutex> lock(mu);
    std::int64_t origin = 0;
    for (std::size_t i = 0; i < records.size(); ++i)
        if (i == 0 || records[i].t0Ns < origin)
            origin = records[i].t0Ns;
    out << "{\"displayTimeUnit\":\"ms\",\"otherData\":" << provenanceJson
        << ",\"traceEvents\":[\n";
    char buf[512];
    for (std::size_t i = 0; i < records.size(); ++i) {
        const Record &r = records[i];
        std::snprintf(
            buf, sizeof buf,
            "{\"name\":%s,\"cat\":\"perfbench\",\"ph\":\"X\","
            "\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,"
            "\"args\":{\"span\":%" PRIu64 ",\"parent\":%" PRIu64
            ",\"req\":%" PRIu64 "}}%s\n",
            jsonQuote(r.name).c_str(), r.tid,
            static_cast<double>(r.t0Ns - origin) / 1e3,
            static_cast<double>(r.t1Ns - r.t0Ns) / 1e3, r.id, r.parent,
            r.req, i + 1 < records.size() ? "," : "");
        out << buf;
    }
    out << "]}\n";
    return static_cast<bool>(out);
}

std::string
Tracer::selfTimeTable() const
{
    std::lock_guard<std::mutex> lock(mu);
    std::unordered_map<std::uint64_t, double> childNs;
    for (const Record &r : records)
        if (r.parent)
            childNs[r.parent] += static_cast<double>(r.t1Ns - r.t0Ns);
    struct Row
    {
        std::size_t n = 0;
        double total = 0.0;
        double self = 0.0;
    };
    std::map<std::string, Row> rows;
    for (const Record &r : records) {
        Row &row = rows[r.name];
        const double dur = static_cast<double>(r.t1Ns - r.t0Ns);
        auto it = childNs.find(r.id);
        ++row.n;
        row.total += dur;
        row.self += std::max(0.0, dur - (it == childNs.end() ? 0.0 : it->second));
    }
    std::vector<std::pair<std::string, Row>> sorted(rows.begin(), rows.end());
    std::sort(sorted.begin(), sorted.end(), [](const auto &a, const auto &b) {
        return a.second.self > b.second.self;
    });
    std::ostringstream os;
    char buf[256];
    std::snprintf(buf, sizeof buf, "%-36s %8s %12s %12s\n", "span", "count",
                  "total_ms", "self_ms");
    os << buf;
    for (const auto &[name, row] : sorted) {
        std::snprintf(buf, sizeof buf, "%-36s %8zu %12.3f %12.3f\n",
                      name.c_str(), row.n, row.total / 1e6, row.self / 1e6);
        os << buf;
    }
    return os.str();
}

Span::Span(const char *name, std::uint64_t req)
{
    if (!Tracer::instance().enabled())
        return;
    const Span *in = tlsInnermost;
    open(name, in ? in->rec.id : 0, req ? req : (in ? in->rec.req : 0));
}

Span::Span(const char *name, std::uint64_t parent, std::uint64_t req)
{
    if (!Tracer::instance().enabled())
        return;
    open(name, parent, req);
}

void
Span::open(const char *name, std::uint64_t parent, std::uint64_t req)
{
    active = true;
    rec.name = name;
    rec.id = Tracer::instance().newId();
    rec.parent = parent;
    rec.req = req;
    rec.tid = threadId();
    outer = tlsInnermost;
    tlsInnermost = this;
    rec.t0Ns = nowNs();
}

Span::~Span()
{
    if (!active)
        return;
    rec.t1Ns = nowNs();
    tlsInnermost = outer;
    Tracer::instance().add(rec);
}

void
addSyntheticSpan(const char *name, std::uint64_t parent, std::uint64_t req,
                 int tid, Clock::time_point t0, Clock::time_point t1)
{
    Tracer &t = Tracer::instance();
    if (!t.enabled())
        return;
    Tracer::Record r{};
    r.name = name;
    r.id = t.newId();
    r.parent = parent;
    r.req = req;
    r.tid = tid;
    r.t0Ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                 t0.time_since_epoch())
                 .count();
    r.t1Ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                 t1.time_since_epoch())
                 .count();
    t.add(r);
}

// --- golden digests ------------------------------------------------------

std::uint64_t
resultDigest(const sim::RunResult &r)
{
    const std::vector<std::uint8_t> bytes = cache::encodeRunResult(r);
    return bytes::fnv1a(bytes.data(), bytes.size());
}

std::string
hex64(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
    return buf;
}

bool
Goldens::load(const std::string &path, std::string *err)
{
    std::ifstream in(path);
    if (!in) {
        *err = "cannot open goldens file '" + path + "'";
        return false;
    }
    std::map<std::string, std::uint64_t> expected;
    std::string line;
    int lineNo = 0;
    while (std::getline(in, line)) {
        ++lineNo;
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream ls(line);
        std::string tag, universe, a, b;
        ls >> tag >> universe >> a;
        std::uint64_t digest = 0;
        const std::string &hex = tag == "cell" ? b : a;
        const bool ok = (tag != "cell" || (ls >> b)) &&
                        std::sscanf(hex.c_str(), "%" SCNx64, &digest) == 1;
        if (ok && tag == "cell") {
            cells[universe][a] = digest;
        } else if (ok && tag == "universe") {
            expected[universe] = digest;
        } else {
            *err = path + ":" + std::to_string(lineNo) + ": malformed line";
            return false;
        }
    }
    for (const auto &[universe, digest] : expected)
        if (universeDigest(universe) != digest) {
            *err = "goldens file '" + path + "': universe '" + universe +
                   "' does not match its recorded digest";
            return false;
        }
    if (expected.size() != cells.size()) {
        *err = "goldens file '" + path + "': universe lines missing";
        return false;
    }
    return true;
}

bool
Goldens::save(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    out << "# Per-cell result digests: FNV-1a 64 over cache::encodeRunResult\n"
           "# bytes, computed serially (jobs 1) by direct Simulation calls.\n"
           "# A universe line is the digest over its cell lines (key=hex\\n,\n"
           "# key order): one result digest per workload and size.\n"
           "# Regenerate: python3 perfbench/run.py --record-goldens\n";
    for (const auto &[universe, map] : cells) {
        out << "universe " << universe << " " << hex64(universeDigest(universe))
            << "\n";
        for (const auto &[key, digest] : map)
            out << "cell " << universe << " " << key << " " << hex64(digest)
                << "\n";
    }
    return static_cast<bool>(out);
}

void
Goldens::put(const std::string &universe, const std::string &key,
             std::uint64_t digest)
{
    cells[universe][key] = digest;
}

const std::uint64_t *
Goldens::find(const std::string &universe, const std::string &key) const
{
    auto u = cells.find(universe);
    if (u == cells.end())
        return nullptr;
    auto c = u->second.find(key);
    return c == u->second.end() ? nullptr : &c->second;
}

std::uint64_t
Goldens::universeDigest(const std::string &universe) const
{
    std::string text;
    auto u = cells.find(universe);
    if (u != cells.end())
        for (const auto &[key, digest] : u->second)
            text += key + "=" + hex64(digest) + "\n";
    return bytes::fnv1a(reinterpret_cast<const std::uint8_t *>(text.data()),
                        text.size());
}

void
Goldens::corruptFirst(const std::string &universe)
{
    auto u = cells.find(universe);
    if (u != cells.end() && !u->second.empty())
        u->second.begin()->second ^= 1;
}

bool
Verifier::check(const std::string &universe, const std::string &key,
                std::uint64_t digest)
{
    const std::uint64_t *want = goldens.find(universe, key);
    const bool ok = want && *want == digest;
    record(ok, ok ? std::string()
                  : universe + " " + key + ": digest " + hex64(digest) +
                        (want ? " != golden " + hex64(*want)
                              : " has no golden"));
    return ok;
}

void
Verifier::record(bool ok, const std::string &what)
{
    nAttempted.fetch_add(1);
    if (ok)
        return;
    nFailed.fetch_add(1);
    if (reported.fetch_add(1) < 10)
        std::fprintf(stderr, "perfbench: FAILED %s\n", what.c_str());
}

// --- set-up ----------------------------------------------------------------

sim::SimConfig
defaultConfig(bool smoke, int jobs)
{
    sim::SimConfig cfg;
    cfg.jobs = jobs;
    cfg.memoizeResults = false;
    if (smoke) {
        cfg.noiseSamples = 4;
        cfg.profilingEpochs = 8;
    }
    return cfg;
}

sim::SimConfig
paperConfig(bool smoke, int jobs)
{
    sim::SimConfig cfg = defaultConfig(smoke, jobs);
    cfg.noiseSamples = smoke ? 8 : 200;
    cfg.noiseCyclesTotal = smoke ? 400 : 2000;
    cfg.noiseWarmupCycles = smoke ? 200 : 1000;
    return cfg;
}

floorplan::Chip
buildChip(bool smoke)
{
    return smoke ? floorplan::buildMiniChip(2) : floorplan::buildPower8Chip();
}

std::vector<std::string>
gridBenchmarks(bool smoke)
{
    if (smoke)
        return {"fft", "water_s"};
    std::vector<std::string> names;
    for (const auto &p : workload::splashProfiles())
        names.push_back(p.name);
    return names;
}

std::vector<core::PolicyKind>
gridPolicies(bool smoke)
{
    if (smoke)
        return {core::PolicyKind::AllOn, core::PolicyKind::OracT,
                core::PolicyKind::PracVT};
    return core::allPolicyKinds();
}

std::vector<std::string>
paperBenchmarks(bool smoke)
{
    // Two Table 2 emergency benchmarks and a quiet one, so the PracVT
    // override path and the plain path both carry weight.
    if (smoke)
        return {"fft"};
    return {"fft", "barnes", "water_s"};
}

const std::vector<core::PolicyKind> &
paperPolicies()
{
    static const std::vector<core::PolicyKind> p = {core::PolicyKind::AllOn,
                                                    core::PolicyKind::PracVT};
    return p;
}

std::string
ServeTuple::key() const
{
    return cellKey(benchmark, policy) + "/vr" + std::to_string(trackVr);
}

std::vector<ServeTuple>
servePool(bool smoke)
{
    const std::vector<int> vrs = smoke ? std::vector<int>{0, 13}
                                       : std::vector<int>{0, 19, 38, 57, 76, 95};
    std::vector<ServeTuple> pool;
    for (const auto &b : gridBenchmarks(smoke))
        for (auto p : core::allPolicyKinds())
            for (int vr : vrs)
                pool.push_back({b, p, vr});
    return pool;
}

std::vector<ServeTuple>
serveIdleTuples(bool smoke, int block)
{
    // Tracked VRs outside the pool's set keep the tuples novel.
    const int vr = block == 0 ? -1 : 10;
    std::vector<ServeTuple> tuples;
    for (const auto &b : gridBenchmarks(smoke))
        for (auto p : paperPolicies())
            tuples.push_back({b, p, vr});
    return tuples;
}

std::string
policySlug(core::PolicyKind p)
{
    std::string slug;
    for (const char *c = core::policyName(p); *c; ++c)
        if (std::isalnum(static_cast<unsigned char>(*c)))
            slug.push_back(static_cast<char>(
                std::tolower(static_cast<unsigned char>(*c))));
    return slug;
}

std::string
cellKey(const std::string &benchmark, core::PolicyKind p)
{
    return benchmark + "/" + policySlug(p);
}

} // namespace perfbench
} // namespace tg
