#include "cache/store.hh"

#include <cstdio>
#include <cstdlib>

namespace tg {
namespace cache {

const char *artifactKindName(ArtifactKind kind)
{
    switch (kind) {
    case ArtifactKind::PowerTrace:
        return "power-trace";
    case ArtifactKind::Predictor:
        return "predictor";
    case ArtifactKind::PdnBase:
        return "pdn-base";
    case ArtifactKind::RunResult:
        return "run-result";
    }
    return "unknown";
}

std::uint64_t StoreStats::total(std::uint64_t PerKind::*counter) const
{
    std::uint64_t t = 0;
    for (const PerKind &k : kind)
        t += k.*counter;
    return t;
}

std::string StoreStats::describe() const
{
    char buf[64];
    std::snprintf(buf, sizeof buf,
                  "cache: hits=%llu misses=%llu resident=%.1fMiB",
                  static_cast<unsigned long long>(hitsTotal()),
                  static_cast<unsigned long long>(missesTotal()),
                  static_cast<double>(bytesTotal()) / (1024.0 * 1024.0));
    std::string line = buf;
    auto append = [&line](const char *name, std::uint64_t value) {
        line += ' ';
        line += name;
        line += '=';
        line += std::to_string(value);
    };
    for (const auto &f : kStoreFields)
        append(f.name, this->*f.member);
    for (int k = 0; k < kArtifactKinds; ++k) {
        line += " [";
        line += artifactKindName(static_cast<ArtifactKind>(k));
        for (const auto &f : kStoreKindFields)
            append(f.name, kind[static_cast<std::size_t>(k)].*f.member);
        line += ']';
    }
    return line;
}

ArtifactStore::ArtifactStore(std::size_t capacity_bytes)
    : capacity(capacity_bytes)
{
}

std::shared_ptr<const void> ArtifactStore::getRaw(ArtifactKind kind,
                                                  const Fingerprint &key)
{
    StoreStats::PerKind &kc = live.kind[static_cast<std::size_t>(kind)];
    if (!enabledFlag.load(std::memory_order_relaxed)) {
        counters::add(kc.misses);
        return nullptr;
    }
    Shard &s = shardFor(key);
    const Key k{kind, key};
    std::lock_guard<std::mutex> lock(s.mu);
    auto it = s.map.find(k);
    if (it == s.map.end()) {
        counters::add(kc.misses);
        return nullptr;
    }
    s.lru.splice(s.lru.begin(), s.lru, it->second); // bump to front
    counters::add(kc.hits);
    return it->second->value;
}

void ArtifactStore::putRaw(ArtifactKind kind, const Fingerprint &key,
                           std::shared_ptr<const void> value,
                           std::size_t bytes)
{
    if (!enabledFlag.load(std::memory_order_relaxed) || !value)
        return;
    Shard &s = shardFor(key);
    const Key k{kind, key};
    StoreStats::PerKind &kc = live.kind[static_cast<std::size_t>(kind)];
    std::lock_guard<std::mutex> lock(s.mu);
    if (s.map.find(k) != s.map.end())
        return; // first write wins (identical by determinism)
    s.lru.push_front(Entry{k, std::move(value), bytes});
    s.map.emplace(k, s.lru.begin());
    s.bytes += bytes;
    counters::add(kc.inserts);
    counters::add(kc.bytes, bytes);
    evictLocked(s);
}

void ArtifactStore::evictLocked(Shard &s)
{
    while (s.bytes > capacity / kShards && s.lru.size() > 1) {
        const Entry &victim = s.lru.back();
        StoreStats::PerKind &kc =
            live.kind[static_cast<std::size_t>(victim.key.kind)];
        counters::sub(kc.bytes, victim.bytes);
        counters::add(kc.evictions);
        s.bytes -= victim.bytes;
        s.map.erase(victim.key);
        s.lru.pop_back();
    }
}

void ArtifactStore::clear()
{
    for (Shard &s : shards) {
        std::lock_guard<std::mutex> lock(s.mu);
        for (const Entry &e : s.lru)
            counters::sub(
                live.kind[static_cast<std::size_t>(e.key.kind)].bytes,
                e.bytes);
        s.lru.clear();
        s.map.clear();
        s.bytes = 0;
    }
}

StoreStats ArtifactStore::stats() const
{
    StoreStats out;
    for (std::size_t k = 0; k < live.kind.size(); ++k)
        counters::load(live.kind[k], out.kind[k], kStoreKindFields);
    counters::load(live, out, kStoreFields);
    out.evictions = out.total(&StoreStats::PerKind::evictions);
    return out;
}

void ArtifactStore::resetStats()
{
    for (StoreStats::PerKind &k : live.kind)
        counters::zero(k, kStoreKindFields);
    counters::zero(live, kStoreFields);
}

ArtifactStore &store()
{
    static ArtifactStore *instance = [] {
        std::size_t cap = ArtifactStore::kDefaultCapacity;
        if (const char *mb = std::getenv("TG_CACHE_MEM_MB")) {
            const long v = std::strtol(mb, nullptr, 10);
            if (v > 0)
                cap = static_cast<std::size_t>(v) << 20;
        }
        auto *s = new ArtifactStore(cap);
        if (const char *e = std::getenv("TG_CACHE")) {
            if (e[0] == '0' && e[1] == '\0')
                s->setEnabled(false);
        }
        return s;
    }();
    return *instance;
}

} // namespace cache
} // namespace tg
