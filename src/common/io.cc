#include "common/io.hh"

#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <mutex>

#include "common/bytes.hh"
#include "common/counters.hh"

#ifdef __unix__
#include <cstring>
#include <fcntl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>
#endif

namespace tg {
namespace io {

// --- deterministic I/O chaos ------------------------------------------

namespace {

/** 0 = uninitialised, 1 = disabled, 2 = enabled. The fast path is a
 *  single relaxed load of this word. */
std::atomic<int> g_chaosState{0};
std::mutex g_chaosMu;
ChaosConfig g_chaosCfg;

/** Live counters (common/counters.hh); `ops` is also the
 *  operation index each chaos-wrapped call draws. */
ChaosCounters g_chaos;

/** Which fault (if any) operation index `op` draws. */
enum class ChaosDraw
{
    None,
    Eintr,
    Reset,
    Short,
    Enospc, // only consulted by the disk gate
};

/** The uniform [0, 1) variate of operation `op` under `seed`. */
double chaosUnit(std::uint64_t seed, std::uint64_t op)
{
    std::uint8_t key[16];
    for (int i = 0; i < 8; ++i) {
        key[i] = static_cast<std::uint8_t>(seed >> (8 * i));
        key[8 + i] = static_cast<std::uint8_t>(op >> (8 * i));
    }
    const std::uint64_t h = bytes::fnv1a(key, sizeof key);
    // 53 bits of the hash -> [0, 1) exactly representable.
    return static_cast<double>(h >> 11) /
           static_cast<double>(1ull << 53);
}

/** Draw for a read/write op: cumulative rate comparison, EINTR
 *  first, then reset, then short transfer. */
ChaosDraw drawFor(const ChaosConfig &cfg, std::uint64_t op,
                  bool isRead)
{
    const double u = chaosUnit(cfg.seed, op);
    double edge = cfg.eintr;
    if (u < edge)
        return ChaosDraw::Eintr;
    edge += cfg.reset;
    if (u < edge)
        return ChaosDraw::Reset;
    edge += isRead ? cfg.shortRead : cfg.shortWrite;
    if (u < edge)
        return ChaosDraw::Short;
    return ChaosDraw::None;
}

void chaosInitFromEnv()
{
    std::lock_guard<std::mutex> lock(g_chaosMu);
    if (g_chaosState.load(std::memory_order_relaxed) != 0)
        return;
    ChaosConfig cfg;
    if (const char *env = std::getenv("TG_IO_FAULTS")) {
        std::string err;
        if (!chaosParse(env, cfg, &err)) {
            // A malformed spec disables injection instead of
            // changing runtime behaviour on a typo; the parse error
            // is surfaced by tools that validate specs up front.
            cfg = ChaosConfig{};
        }
    }
    g_chaosCfg = cfg;
    g_chaosState.store(cfg.enabled ? 2 : 1,
                       std::memory_order_release);
}

/** Truncated length of a short transfer: 1..16 bytes, keyed off the
 *  same op so replays agree. */
std::size_t shortLen(const ChaosConfig &cfg, std::uint64_t op,
                     std::size_t want)
{
    const std::uint64_t h =
        bytes::fnv1a(reinterpret_cast<const std::uint8_t *>(&op),
                     sizeof op) ^
        cfg.seed;
    const std::size_t cap = 1 + static_cast<std::size_t>(h % 16);
    return want < cap ? want : cap;
}

} // namespace

bool chaosParse(const std::string &spec, ChaosConfig &out,
                std::string *err)
{
    auto fail = [&](const std::string &why) {
        if (err)
            *err = why;
        return false;
    };
    ChaosConfig cfg;
    std::size_t pos = 0;
    while (pos < spec.size()) {
        std::size_t end = spec.find(',', pos);
        if (end == std::string::npos)
            end = spec.size();
        const std::string item = spec.substr(pos, end - pos);
        pos = end + 1;
        if (item.empty())
            continue;
        const std::size_t eq = item.find('=');
        if (eq == std::string::npos)
            return fail("chaos spec item '" + item +
                        "' is not key=value");
        const std::string key = item.substr(0, eq);
        const std::string val = item.substr(eq + 1);
        char *parse_end = nullptr;
        if (key == "seed") {
            const unsigned long long v =
                std::strtoull(val.c_str(), &parse_end, 10);
            if (parse_end == val.c_str() || *parse_end != '\0')
                return fail("chaos seed '" + val +
                            "' is not a number");
            cfg.seed = v;
            continue;
        }
        const double p = std::strtod(val.c_str(), &parse_end);
        if (parse_end == val.c_str() || *parse_end != '\0')
            return fail("chaos rate '" + val + "' for '" + key +
                        "' is not a number");
        if (p < 0.0 || p > 1.0)
            return fail("chaos rate for '" + key +
                        "' must be in [0, 1]");
        if (key == "short-read")
            cfg.shortRead = p;
        else if (key == "short-write")
            cfg.shortWrite = p;
        else if (key == "eintr")
            cfg.eintr = p;
        else if (key == "reset")
            cfg.reset = p;
        else if (key == "enospc")
            cfg.enospc = p;
        else
            return fail("unknown chaos key '" + key + "'");
    }
    cfg.enabled = cfg.shortRead > 0.0 || cfg.shortWrite > 0.0 ||
                  cfg.eintr > 0.0 || cfg.reset > 0.0 ||
                  cfg.enospc > 0.0;
    out = cfg;
    return true;
}

void chaosConfigure(const ChaosConfig &cfg)
{
    std::lock_guard<std::mutex> lock(g_chaosMu);
    g_chaosCfg = cfg;
    counters::set(g_chaos.ops, 0);
    g_chaosState.store(cfg.enabled ? 2 : 1,
                       std::memory_order_release);
}

ChaosConfig chaosConfig()
{
    if (g_chaosState.load(std::memory_order_acquire) == 0)
        chaosInitFromEnv();
    std::lock_guard<std::mutex> lock(g_chaosMu);
    return g_chaosCfg;
}

bool chaosEnabled()
{
    int st = g_chaosState.load(std::memory_order_acquire);
    if (st == 0) {
        chaosInitFromEnv();
        st = g_chaosState.load(std::memory_order_acquire);
    }
    return st == 2;
}

ChaosCounters chaosCounters()
{
    ChaosCounters c;
    counters::load(g_chaos, c);
    return c;
}

void chaosResetCounters()
{
    counters::zero(g_chaos);
}

#ifdef __unix__

long chaosRead(int fd, void *buf, std::size_t count)
{
    if (chaosEnabled() && count > 0) {
        const ChaosConfig cfg = chaosConfig();
        const std::uint64_t op = counters::add(g_chaos.ops);
        switch (drawFor(cfg, op, /*isRead=*/true)) {
        case ChaosDraw::Eintr:
            counters::add(g_chaos.eintrs);
            errno = EINTR;
            return -1;
        case ChaosDraw::Reset:
            counters::add(g_chaos.resets);
            errno = ECONNRESET;
            return -1;
        case ChaosDraw::Short:
            counters::add(g_chaos.shortReads);
            count = shortLen(cfg, op, count);
            break;
        default:
            break;
        }
    }
    return static_cast<long>(::read(fd, buf, count));
}

long chaosWrite(int fd, const void *buf, std::size_t count)
{
    if (chaosEnabled() && count > 0) {
        const ChaosConfig cfg = chaosConfig();
        const std::uint64_t op = counters::add(g_chaos.ops);
        switch (drawFor(cfg, op, /*isRead=*/false)) {
        case ChaosDraw::Eintr:
            counters::add(g_chaos.eintrs);
            errno = EINTR;
            return -1;
        case ChaosDraw::Reset:
            counters::add(g_chaos.resets);
            errno = ECONNRESET;
            return -1;
        case ChaosDraw::Short:
            counters::add(g_chaos.shortWrites);
            count = shortLen(cfg, op, count);
            break;
        default:
            break;
        }
    }
    return static_cast<long>(::write(fd, buf, count));
}

#else // !__unix__

long chaosRead(int, void *, std::size_t)
{
    return -1;
}

long chaosWrite(int, const void *, std::size_t)
{
    return -1;
}

#endif // __unix__

bool chaosDiskWriteAllowed()
{
    if (!chaosEnabled())
        return true;
    const ChaosConfig cfg = chaosConfig();
    if (cfg.enospc <= 0.0)
        return true;
    const std::uint64_t op = counters::add(g_chaos.ops);
    if (chaosUnit(cfg.seed, op) < cfg.enospc) {
        counters::add(g_chaos.enospcs);
        errno = ENOSPC;
        return false;
    }
    return true;
}

#ifdef __unix__

bool writeAll(int fd, const std::uint8_t *data, std::size_t size)
{
    std::size_t off = 0;
    while (off < size) {
        const long n = chaosWrite(fd, data + off, size - off);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        off += static_cast<std::size_t>(n);
    }
    return true;
}

bool setNonBlocking(int fd, bool on)
{
    int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags < 0)
        return false;
    if (on)
        flags |= O_NONBLOCK;
    else
        flags &= ~O_NONBLOCK;
    return ::fcntl(fd, F_SETFL, flags) == 0;
}

namespace {

/** Fill a sockaddr_un; false when `path` overflows sun_path. */
bool unixAddress(const std::string &path, sockaddr_un &addr)
{
    if (path.empty() || path.size() >= sizeof addr.sun_path)
        return false;
    std::memset(&addr, 0, sizeof addr);
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    return true;
}

} // namespace

int listenUnix(const std::string &path, int backlog, std::string *err)
{
    auto fail = [&](const std::string &why) {
        if (err)
            *err = why;
        return -1;
    };

    sockaddr_un addr;
    if (!unixAddress(path, addr))
        return fail("socket path '" + path +
                    "' is empty or too long for sun_path");

    int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0)
        return fail(std::string("socket(): ") + std::strerror(errno));

    if (::bind(fd, reinterpret_cast<sockaddr *>(&addr),
               sizeof addr) != 0) {
        if (errno != EADDRINUSE) {
            ::close(fd);
            return fail(std::string("bind(") + path +
                        "): " + std::strerror(errno));
        }
        // The path exists. A live server accepts connections on it; a
        // stale file from a crashed server refuses them and is safe
        // to reclaim.
        int probe = connectUnix(path);
        if (probe >= 0) {
            ::close(probe);
            ::close(fd);
            return fail("a server is already listening on " + path);
        }
        if (::unlink(path.c_str()) != 0 ||
            ::bind(fd, reinterpret_cast<sockaddr *>(&addr),
                   sizeof addr) != 0) {
            ::close(fd);
            return fail("cannot reclaim stale socket " + path + ": " +
                        std::strerror(errno));
        }
    }

    if (::listen(fd, backlog > 0 ? backlog : 16) != 0) {
        ::close(fd);
        return fail(std::string("listen(") + path +
                    "): " + std::strerror(errno));
    }
    return fd;
}

int connectUnix(const std::string &path)
{
    sockaddr_un addr;
    if (!unixAddress(path, addr))
        return -1;
    int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0)
        return -1;
    int rv;
    do {
        rv = ::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                       sizeof addr);
    } while (rv != 0 && errno == EINTR);
    if (rv != 0) {
        ::close(fd);
        return -1;
    }
    return fd;
}

#else // !__unix__

bool writeAll(int, const std::uint8_t *, std::size_t) { return false; }
bool setNonBlocking(int, bool) { return false; }

int listenUnix(const std::string &, int, std::string *err)
{
    if (err)
        *err = "Unix-domain sockets require a POSIX host";
    return -1;
}

int connectUnix(const std::string &) { return -1; }

#endif // __unix__

} // namespace io
} // namespace tg
