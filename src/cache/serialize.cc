#include "cache/serialize.hh"

#include "sim/result.hh"

namespace tg {
namespace cache {

/** Version tag leading every encoded RunResult payload. */
constexpr std::uint32_t kRunResultMagic = 0x54475231; // "TGR1"

std::vector<std::uint8_t> encodeRunResult(const sim::RunResult &r)
{
    bytes::ByteWriter w;
    w.reserve(sizeof kRunResultMagic +
              fields::encodedSize(r, sim::kRunResultFields));
    w.u32(kRunResultMagic);
    fields::putAll(w, r, sim::kRunResultFields);
    return w.take();
}

bool decodeRunResult(const std::uint8_t *data, std::size_t size,
                     sim::RunResult &out)
{
    bytes::ByteReader r(data, size);
    return r.u32() == kRunResultMagic &&
           fields::getAll(r, out, sim::kRunResultFields) && r.exhausted();
}

std::size_t runResultBytes(const sim::RunResult &r)
{
    std::size_t b = sizeof(sim::RunResult);
    fields::forEach(sim::kRunResultFields, [&](const auto &e) {
        const auto &v = r.*e.member;
        if constexpr (requires { v.size(); })
            b += v.size() * sizeof(v[0]);
    });
    return b;
}

} // namespace cache
} // namespace tg
