#include "crypto/mac.hh"

#include <algorithm>
#include <cstring>

#include "common/check.hh"
#include "common/prof.hh"

namespace morph
{

namespace
{

constexpr std::size_t messageBytes = 8 + 8 + lineBytes;

/** Serialize (line || counter || payload), the bytes the PRF sees. */
void
serialize(LineAddr line, std::uint64_t counter,
          const CachelineData &payload, std::uint8_t *buf)
{
    std::memcpy(buf, &line, 8);
    std::memcpy(buf + 8, &counter, 8);
    std::memcpy(buf + 16, payload.data(), lineBytes);
}

std::uint64_t
truncate(std::uint64_t tag, unsigned tag_bits)
{
    MORPH_CHECK(tag_bits >= 1 && tag_bits <= 64);
    return tag_bits == 64 ? tag : (tag & ((1ull << tag_bits) - 1));
}

} // namespace

MacEngine::MacEngine(MORPH_SECRET const SipKey &key) : key_(key) {}

std::uint64_t
MacEngine::compute(LineAddr line, std::uint64_t counter,
                   const CachelineData &payload, unsigned tag_bits) const
{
    MORPH_PROF_SCOPE("crypto.mac");
    std::uint8_t buf[messageBytes];
    serialize(line, counter, payload, buf);
    return truncate(siphash24(buf, sizeof(buf), key_.raw()), tag_bits);
}

std::uint64_t
MacEngine::compute(const MacMessage &msg) const
{
    if (!msg.zeroMacWord)
        return compute(msg.line, msg.counter, *msg.payload, msg.tagBits);
    CachelineData payload = *msg.payload;
    std::memset(payload.data() + lineBytes - 8, 0, 8);
    return compute(msg.line, msg.counter, payload, msg.tagBits);
}

void
MacEngine::computeBatch(const MacMessage *msgs, std::size_t n,
                        std::uint64_t *tags, SipImpl impl) const
{
    MORPH_PROF_SCOPE("crypto.mac_batch");
    static_assert(messageBytes == sipLineBytes);
    for (std::size_t first = 0; first < n; first += 4) {
        const std::size_t lanes = std::min<std::size_t>(4, n - first);
        SipLines4 pass;
        for (std::size_t lane = 0; lane < 4; ++lane) {
            const MacMessage &m = msgs[first + std::min(lane, lanes - 1)];
            pass.line[lane] = m.line;
            pass.counter[lane] = m.counter;
            pass.payload[lane] = m.payload->data();
            pass.lastMask[lane] = m.zeroMacWord ? 0 : ~0ull;
        }
        std::uint64_t out[4];
        siphash24x4(pass, key_.raw(), out, impl);
        for (std::size_t lane = 0; lane < lanes; ++lane)
            tags[first + lane] =
                truncate(out[lane], msgs[first + lane].tagBits);
    }
}

bool
MacEngine::equal(std::uint64_t a, std::uint64_t b, unsigned tag_bits)
{
    MORPH_CHECK(tag_bits >= 1 && tag_bits <= 64);
    const std::uint64_t mask =
        tag_bits == 64 ? ~0ull : ((1ull << tag_bits) - 1);
    // Constant-time compare; the pass/fail bit is deliberately public.
    return MORPH_DECLASSIFY(ctEqual64(a & mask, b & mask));
}

} // namespace morph
