/**
 * @file
 * Four-lane SipHash kernel: four SipHash-2-4 states side by side, one
 * per 64-bit lane of each __m256i.
 *
 * This source is built twice. On its own, with -mavx2, it is the
 * sipavx2 backend; src/crypto/siphash_avx512.cc includes it with
 * MORPH_SIPHASH_AVX512 defined, built with -mavx512f -mavx512vl, as
 * the sipavx512 backend, where every rotate is one vprolq (see
 * src/CMakeLists.txt). Only the rotate differs. Either is only ever
 * entered through siphash24x4 after its cpuSupported() returned true.
 * SipHash is add-rotate-xor only, so the lanes never interact, and
 * every message is 80 bytes: there is no branch and no memory index
 * derived from key or message bytes.
 */

#include "crypto/siphash_avx2.hh"

#include <cstring>

#include <immintrin.h>

#ifdef MORPH_SIPHASH_AVX512
#define MORPH_SIPHASH_X4 sipavx512
#else
#define MORPH_SIPHASH_X4 sipavx2
#endif

namespace morph
{
namespace MORPH_SIPHASH_X4
{

namespace
{

#ifdef MORPH_SIPHASH_AVX512

template <int B>
inline __m256i
rotl(__m256i x)
{
    return _mm256_rol_epi64(x, B);
}

#else

template <int B>
inline __m256i
rotl(__m256i x)
{
    if constexpr (B == 16) {
        // Rotations by whole bytes are single shuffles.
        const __m256i bytes = _mm256_setr_epi8(
            6, 7, 0, 1, 2, 3, 4, 5, 14, 15, 8, 9, 10, 11, 12, 13, 6, 7, 0,
            1, 2, 3, 4, 5, 14, 15, 8, 9, 10, 11, 12, 13);
        return _mm256_shuffle_epi8(x, bytes);
    } else if constexpr (B == 32) {
        return _mm256_shuffle_epi32(x, _MM_SHUFFLE(2, 3, 0, 1));
    } else {
        return _mm256_or_si256(_mm256_slli_epi64(x, B),
                               _mm256_srli_epi64(x, 64 - B));
    }
}

#endif

inline void
sipround(__m256i &v0, __m256i &v1, __m256i &v2, __m256i &v3)
{
    v0 = _mm256_add_epi64(v0, v1);
    v1 = rotl<13>(v1);
    v1 = _mm256_xor_si256(v1, v0);
    v0 = rotl<32>(v0);
    v2 = _mm256_add_epi64(v2, v3);
    v3 = rotl<16>(v3);
    v3 = _mm256_xor_si256(v3, v2);
    v0 = _mm256_add_epi64(v0, v3);
    v3 = rotl<21>(v3);
    v3 = _mm256_xor_si256(v3, v0);
    v2 = _mm256_add_epi64(v2, v1);
    v1 = rotl<17>(v1);
    v1 = _mm256_xor_si256(v1, v2);
    v2 = rotl<32>(v2);
}

inline std::uint64_t
readLe64(const std::uint8_t *p)
{
    std::uint64_t v;
    std::memcpy(&v, p, 8);
    return v;
}

inline __m256i
load(const void *p)
{
    return _mm256_loadu_si256(static_cast<const __m256i *>(p));
}

/** SipHash state, keyed; the four lanes start equal. */
struct State
{
    __m256i v0, v1, v2, v3;

    explicit State(MORPH_SECRET const SipKey &key)
    {
        const __m256i k0 = _mm256_set1_epi64x(
            static_cast<long long>(readLe64(key.data())));
        const __m256i k1 = _mm256_set1_epi64x(
            static_cast<long long>(readLe64(key.data() + 8)));
        v0 = _mm256_xor_si256(k0, _mm256_set1_epi64x(0x736f6d6570736575ll));
        v1 = _mm256_xor_si256(k1, _mm256_set1_epi64x(0x646f72616e646f6dll));
        v2 = _mm256_xor_si256(k0, _mm256_set1_epi64x(0x6c7967656e657261ll));
        v3 = _mm256_xor_si256(k1, _mm256_set1_epi64x(0x7465646279746573ll));
    }

    /** Absorb one message word per lane. */
    void
    compress(__m256i m)
    {
        v3 = _mm256_xor_si256(v3, m);
        sipround(v0, v1, v2, v3);
        sipround(v0, v1, v2, v3);
        v0 = _mm256_xor_si256(v0, m);
    }

    /** Absorb four words per lane, read at byte @p at of each lane's
     *  payload and transposed so that word w of every lane is absorbed
     *  together; @p last_mask is ANDed into the fourth. */
    void
    compress4(const std::uint8_t *const payload[4], std::size_t at,
              __m256i last_mask)
    {
        const __m256i r0 = load(payload[0] + at);
        const __m256i r1 = load(payload[1] + at);
        const __m256i r2 = load(payload[2] + at);
        const __m256i r3 = load(payload[3] + at);
        const __m256i t0 = _mm256_unpacklo_epi64(r0, r1);
        const __m256i t1 = _mm256_unpackhi_epi64(r0, r1);
        const __m256i t2 = _mm256_unpacklo_epi64(r2, r3);
        const __m256i t3 = _mm256_unpackhi_epi64(r2, r3);
        compress(_mm256_permute2x128_si256(t0, t2, 0x20));
        compress(_mm256_permute2x128_si256(t1, t3, 0x20));
        compress(_mm256_permute2x128_si256(t0, t2, 0x31));
        compress(_mm256_and_si256(_mm256_permute2x128_si256(t1, t3, 0x31),
                                  last_mask));
    }

    /** Finalize and store the four tags. */
    void
    finish(std::uint64_t out[4])
    {
        v2 = _mm256_xor_si256(v2, _mm256_set1_epi64x(0xff));
        sipround(v0, v1, v2, v3);
        sipround(v0, v1, v2, v3);
        sipround(v0, v1, v2, v3);
        sipround(v0, v1, v2, v3);
        // Tags are public outputs of the keyed PRF, as in siphash24.
        const __m256i tags = _mm256_xor_si256(_mm256_xor_si256(v0, v1),
                                              _mm256_xor_si256(v2, v3));
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(out),
                            MORPH_DECLASSIFY(tags));
    }
};

} // namespace

bool
cpuSupported()
{
#ifdef MORPH_SIPHASH_AVX512
    return __builtin_cpu_supports("avx512f") != 0 &&
           __builtin_cpu_supports("avx512vl") != 0;
#else
    return __builtin_cpu_supports("avx2") != 0;
#endif
}

void
hash4(const SipLines4 &msgs, MORPH_SECRET const SipKey &key,
      std::uint64_t out[4])
{
    // line, counter, the payload's eight words (the last one masked),
    // then the final word: 80 bytes leave no tail, only the length.
    static_assert(sipLineBytes == 80);
    State s(key);
    const __m256i all = _mm256_set1_epi64x(-1);
    s.compress(load(msgs.line));
    s.compress(load(msgs.counter));
    s.compress4(msgs.payload, 0, all);
    s.compress4(msgs.payload, 32, load(msgs.lastMask));
    s.compress(_mm256_set1_epi64x(static_cast<long long>(
        std::uint64_t(sipLineBytes) << 56)));
    s.finish(out);
}

} // namespace MORPH_SIPHASH_X4
} // namespace morph

#undef MORPH_SIPHASH_X4
