#include "crypto/mac.hh"

#include <cstring>

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

} // namespace

MacEngine::MacEngine(MORPH_SECRET const SipKey &key)
    : key_(key), impl_(siphashDispatched())
{
}

std::uint64_t
MacEngine::compute(LineAddr line, std::uint64_t counter,
                   const CachelineData &payload, unsigned tag_bits) const
{
    std::uint8_t buf[messageBytes];
    serialize(line, counter, payload, buf);
    return siphash24(buf, sizeof(buf), key_.raw()) & tagMask(tag_bits);
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

bool
MacEngine::equal(std::uint64_t a, std::uint64_t b, unsigned tag_bits)
{
    const std::uint64_t mask = tagMask(tag_bits);
    // Constant-time compare; the pass/fail bit is deliberately public.
    return MORPH_DECLASSIFY(ctEqual64(a & mask, b & mask));
}

void
MacPacker::hash()
{
    static_assert(messageBytes == sipLineBytes);
    for (unsigned lane = lanes_; lane < 4; ++lane) {
        pass_.line[lane] = pass_.line[lanes_ - 1];
        pass_.counter[lane] = pass_.counter[lanes_ - 1];
        pass_.payload[lane] = pass_.payload[lanes_ - 1];
        pass_.lastMask[lane] = pass_.lastMask[lanes_ - 1];
    }
    std::uint64_t tags[4];
    siphash24x4(pass_, engine_.key_.raw(), tags, impl_);
    for (unsigned lane = 0; lane < lanes_; ++lane) {
        const std::uint64_t tag = tags[lane] & tagMask_[lane];
        if (out_[lane]) {
            std::memcpy(out_[lane], &tag, 8);
        } else {
            std::uint64_t stored;
            std::memcpy(&stored, pass_.payload[lane] + macByte, 8);
            mismatch_ |= stored ^ tag;
        }
    }
    lanes_ = 0;
}

} // namespace morph
