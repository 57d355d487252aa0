#include "cache/disk.hh"

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <set>
#include <unistd.h>

#include "common/bytes.hh"
#include "common/io.hh"

namespace tg {
namespace cache {

namespace {

constexpr std::uint32_t kMagic = 0x31434754; // "TGC1" little-endian
constexpr std::uint32_t kFormatVersion = 1;

/** Monotonic per-process token for collision-free temp names. */
std::uint64_t tempToken()
{
    static std::atomic<std::uint64_t> counter{0};
    const std::uint64_t pid = static_cast<std::uint64_t>(::getpid());
    return (pid << 20) ^ counter.fetch_add(1);
}

} // namespace

DiskTier::DiskTier(std::string dir, ArtifactStore *stats)
    : root(std::move(dir)), counters(stats ? stats : &store())
{
    if (!active())
        return;
    // Crash hygiene, once per (process, directory): sweep aged
    // orphans left by writers that died between temp write and
    // rename. Once is enough — new orphans can only come from crashes
    // after this point, which the *next* process cleans up.
    static std::mutex mu;
    static std::set<std::string> swept;
    bool first;
    {
        std::lock_guard<std::mutex> lock(mu);
        first = swept.insert(root).second;
    }
    if (first)
        sweepOrphans(kOrphanMinAge);
}

std::size_t DiskTier::sweepOrphans(std::chrono::seconds minAge) const
{
    if (!active())
        return 0;
    namespace fs = std::filesystem;
    std::error_code ec;
    const auto now = fs::file_time_type::clock::now();
    std::size_t removed = 0;
    for (const auto &entry : fs::directory_iterator(root, ec)) {
        if (!entry.is_regular_file(ec))
            continue;
        const std::string name = entry.path().filename().string();
        // Temp names are "<final>.tmp-<16 hex>"; anything else in the
        // directory is either a published artifact or not ours.
        const std::size_t at = name.rfind(".tmp-");
        if (at == std::string::npos || name.size() != at + 5 + 16)
            continue;
        const auto mtime = entry.last_write_time(ec);
        if (ec) {
            ec.clear();
            continue;
        }
        if (now - mtime < minAge)
            continue; // possibly a live concurrent writer's
        if (fs::remove(entry.path(), ec) && !ec)
            ++removed;
        ec.clear();
    }
    if (removed)
        counters->count(&StoreStats::diskTmpSwept, removed);
    return removed;
}

std::string DiskTier::pathFor(ArtifactKind kind,
                              const Fingerprint &key) const
{
    return root + "/" + artifactKindName(kind) + "-" + key.hex() +
           ".tgc";
}

bool DiskTier::load(ArtifactKind kind, const Fingerprint &key,
                    std::vector<std::uint8_t> &payload) const
{
    if (!active())
        return false;
    std::ifstream in(pathFor(kind, key), std::ios::binary);
    if (!in) {
        counters->count(&StoreStats::diskMisses);
        return false;
    }
    std::vector<std::uint8_t> file(
        (std::istreambuf_iterator<char>(in)),
        std::istreambuf_iterator<char>());
    in.close();

    // The header must name this kind and key, and the checksum must
    // directly follow the provenance and payload blocks and match.
    bytes::ByteReader r(file.data(), file.size());
    const bool header = r.u32() == kMagic && r.u32() == kFormatVersion &&
                        r.u32() == static_cast<std::uint32_t>(kind) &&
                        r.u64() == key.hi && r.u64() == key.lo;
    r.str(); // provenance
    if (!header || !r.blob(payload) || r.left() != 8 ||
        r.u64() != bytes::fnv1a(file.data(), file.size() - 8)) {
        counters->count(&StoreStats::diskRejects);
        return false;
    }
    counters->count(&StoreStats::diskHits);
    return true;
}

bool DiskTier::save(ArtifactKind kind, const Fingerprint &key,
                    const std::vector<std::uint8_t> &payload,
                    const std::string &provenance) const
{
    if (!active())
        return false;
    // Chaos gate: a simulated ENOSPC fails the save exactly like a
    // full disk — callers fall back to uncached operation.
    if (!io::chaosDiskWriteAllowed())
        return false;

    std::error_code ec;
    std::filesystem::create_directories(root, ec);
    if (ec)
        return false;

    bytes::ByteWriter w;
    w.u32(kMagic);
    w.u32(kFormatVersion);
    w.u32(static_cast<std::uint32_t>(kind));
    w.u64(key.hi);
    w.u64(key.lo);
    w.str(provenance);
    w.blob(payload);
    w.u64(bytes::fnv1a(w.bytes().data(), w.bytes().size()));
    const std::vector<std::uint8_t> file = w.take();

    char token[32];
    std::snprintf(token, sizeof token, ".tmp-%016llx",
                  static_cast<unsigned long long>(tempToken()));
    const std::string finalPath = pathFor(kind, key);
    const std::string tmpPath = finalPath + token;
    {
        std::ofstream out(tmpPath, std::ios::binary | std::ios::trunc);
        if (!out)
            return false;
        out.write(reinterpret_cast<const char *>(file.data()),
                  static_cast<std::streamsize>(file.size()));
        if (!out) {
            out.close();
            std::remove(tmpPath.c_str());
            return false;
        }
    }
    if (std::rename(tmpPath.c_str(), finalPath.c_str()) != 0) {
        std::remove(tmpPath.c_str());
        return false;
    }
    counters->count(&StoreStats::diskWrites);
    return true;
}

} // namespace cache
} // namespace tg
