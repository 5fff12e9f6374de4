#include "crypto/siphash.hh"

#include <cstring>

#include "common/check.hh"
#include "crypto/siphash_avx2.hh"

namespace morph
{

namespace
{

inline std::uint64_t
rotl(std::uint64_t x, int b)
{
    return (x << b) | (x >> (64 - b));
}

inline std::uint64_t
readLe64(const std::uint8_t *p)
{
    std::uint64_t v;
    std::memcpy(&v, p, 8);
    // Host is little-endian on all supported platforms; memcpy suffices.
    return v;
}

inline void
sipround(std::uint64_t &v0, std::uint64_t &v1, std::uint64_t &v2,
         std::uint64_t &v3)
{
    v0 += v1;
    v1 = rotl(v1, 13);
    v1 ^= v0;
    v0 = rotl(v0, 32);
    v2 += v3;
    v3 = rotl(v3, 16);
    v3 ^= v2;
    v0 += v3;
    v3 = rotl(v3, 21);
    v3 ^= v0;
    v2 += v1;
    v1 = rotl(v1, 17);
    v1 ^= v2;
    v2 = rotl(v2, 32);
}

} // namespace

std::uint64_t
siphash24(const void *data, std::size_t len, MORPH_SECRET const SipKey &key)
{
    const std::uint64_t k0 = readLe64(key.data());
    const std::uint64_t k1 = readLe64(key.data() + 8);

    std::uint64_t v0 = 0x736f6d6570736575ull ^ k0;
    std::uint64_t v1 = 0x646f72616e646f6dull ^ k1;
    std::uint64_t v2 = 0x6c7967656e657261ull ^ k0;
    std::uint64_t v3 = 0x7465646279746573ull ^ k1;

    const auto *in = static_cast<const std::uint8_t *>(data);
    const std::size_t whole = len / 8;
    for (std::size_t i = 0; i < whole; ++i) {
        const std::uint64_t m = readLe64(in + 8 * i);
        v3 ^= m;
        sipround(v0, v1, v2, v3);
        sipround(v0, v1, v2, v3);
        v0 ^= m;
    }

    std::uint64_t last = std::uint64_t(len & 0xff) << 56;
    const std::uint8_t *tail = in + 8 * whole;
    for (std::size_t i = 0; i < (len & 7); ++i)
        last |= std::uint64_t(tail[i]) << (8 * i);

    v3 ^= last;
    sipround(v0, v1, v2, v3);
    sipround(v0, v1, v2, v3);
    v0 ^= last;

    v2 ^= 0xff;
    sipround(v0, v1, v2, v3);
    sipround(v0, v1, v2, v3);
    sipround(v0, v1, v2, v3);
    sipround(v0, v1, v2, v3);

    // The tag is stored in untrusted memory: it is a public output of
    // the keyed PRF, not secret data (key recovery from tags is the
    // PRF security assumption).
    return MORPH_DECLASSIFY(v0 ^ v1 ^ v2 ^ v3);
}

bool
siphashAvx2Available()
{
#ifdef MORPH_HAVE_AVX2
    static const bool supported = sipavx2::cpuSupported();
    return supported;
#else
    return false;
#endif
}

bool
siphashAvx512Available()
{
#ifdef MORPH_HAVE_AVX512
    static const bool supported = sipavx512::cpuSupported();
    return supported;
#else
    return false;
#endif
}

SipImpl
siphashDispatched()
{
    static const SipImpl impl = siphashAvx512Available() ? SipImpl::Avx512
                                : siphashAvx2Available() ? SipImpl::Avx2
                                                         : SipImpl::Portable;
    return impl;
}

void
siphash24x4(const SipLines4 &msgs, MORPH_SECRET const SipKey &key,
            std::uint64_t out[4], SipImpl impl)
{
#ifdef MORPH_HAVE_AVX512
    if (impl == SipImpl::Avx512) {
        MORPH_CHECK(siphashAvx512Available());
        sipavx512::hash4(msgs, key, out);
        return;
    }
#endif
#ifdef MORPH_HAVE_AVX2
    if (impl == SipImpl::Avx2) {
        MORPH_CHECK(siphashAvx2Available());
        sipavx2::hash4(msgs, key, out);
        return;
    }
#endif
    MORPH_CHECK(impl == SipImpl::Portable);
    for (unsigned lane = 0; lane < 4; ++lane) {
        std::uint8_t buf[sipLineBytes];
        std::memcpy(buf, &msgs.line[lane], 8);
        std::memcpy(buf + 8, &msgs.counter[lane], 8);
        std::memcpy(buf + 16, msgs.payload[lane], 64);
        const std::uint64_t last = readLe64(buf + 72) & msgs.lastMask[lane];
        std::memcpy(buf + 72, &last, 8);
        out[lane] = siphash24(buf, sizeof(buf), key);
    }
}

} // namespace morph
