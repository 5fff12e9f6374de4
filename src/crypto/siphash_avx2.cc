/**
 * @file
 * AVX2 SipHash backend: four SipHash-2-4 states side by side, one per
 * 64-bit lane of each __m256i.
 *
 * Compiled with -mavx2 (see src/CMakeLists.txt); only ever entered
 * through siphash24x4 after sipavx2::cpuSupported() returned true.
 * SipHash is add-rotate-xor only, so the lanes never interact and the
 * instruction sequence depends on the message length alone: there is
 * no branch and no memory index derived from key or message bytes.
 */

#include "crypto/siphash_avx2.hh"

#include <cstring>

#include <immintrin.h>

namespace morph
{
namespace sipavx2
{

namespace
{

template <int B>
inline __m256i
rotl(__m256i x)
{
    return _mm256_or_si256(_mm256_slli_epi64(x, B),
                           _mm256_srli_epi64(x, 64 - B));
}

// Rotations by whole bytes are single shuffles.
inline __m256i
rotl16(__m256i x)
{
    const __m256i bytes =
        _mm256_setr_epi8(6, 7, 0, 1, 2, 3, 4, 5, 14, 15, 8, 9, 10, 11, 12,
                         13, 6, 7, 0, 1, 2, 3, 4, 5, 14, 15, 8, 9, 10, 11,
                         12, 13);
    return _mm256_shuffle_epi8(x, bytes);
}

inline __m256i
rotl32(__m256i x)
{
    return _mm256_shuffle_epi32(x, _MM_SHUFFLE(2, 3, 0, 1));
}

inline void
sipround(__m256i &v0, __m256i &v1, __m256i &v2, __m256i &v3)
{
    v0 = _mm256_add_epi64(v0, v1);
    v1 = rotl<13>(v1);
    v1 = _mm256_xor_si256(v1, v0);
    v0 = rotl32(v0);
    v2 = _mm256_add_epi64(v2, v3);
    v3 = rotl16(v3);
    v3 = _mm256_xor_si256(v3, v2);
    v0 = _mm256_add_epi64(v0, v3);
    v3 = rotl<21>(v3);
    v3 = _mm256_xor_si256(v3, v0);
    v2 = _mm256_add_epi64(v2, v1);
    v1 = rotl<17>(v1);
    v1 = _mm256_xor_si256(v1, v2);
    v2 = rotl32(v2);
}

inline std::uint64_t
readLe64(const std::uint8_t *p)
{
    std::uint64_t v;
    std::memcpy(&v, p, 8);
    return v;
}

inline void
compress(__m256i &v0, __m256i &v1, __m256i &v2, __m256i &v3, __m256i m)
{
    v3 = _mm256_xor_si256(v3, m);
    sipround(v0, v1, v2, v3);
    sipround(v0, v1, v2, v3);
    v0 = _mm256_xor_si256(v0, m);
}

} // namespace

bool
cpuSupported()
{
    return __builtin_cpu_supports("avx2") != 0;
}

void
hash4(const std::uint8_t *const data[4], std::size_t len,
      MORPH_SECRET const SipKey &key, std::uint64_t out[4])
{
    const __m256i k0 = _mm256_set1_epi64x(
        static_cast<long long>(readLe64(key.data())));
    const __m256i k1 = _mm256_set1_epi64x(
        static_cast<long long>(readLe64(key.data() + 8)));
    __m256i v0 = _mm256_xor_si256(
        k0, _mm256_set1_epi64x(0x736f6d6570736575ll));
    __m256i v1 = _mm256_xor_si256(
        k1, _mm256_set1_epi64x(0x646f72616e646f6dll));
    __m256i v2 = _mm256_xor_si256(
        k0, _mm256_set1_epi64x(0x6c7967656e657261ll));
    __m256i v3 = _mm256_xor_si256(
        k1, _mm256_set1_epi64x(0x7465646279746573ll));

    // Four message words per lane at a time, transposed so that
    // register w holds word w of every lane.
    const std::size_t whole = len / 8;
    std::size_t word = 0;
    for (; word + 4 <= whole; word += 4) {
        const std::size_t at = 8 * word;
        const __m256i r0 = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(data[0] + at));
        const __m256i r1 = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(data[1] + at));
        const __m256i r2 = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(data[2] + at));
        const __m256i r3 = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(data[3] + at));
        const __m256i t0 = _mm256_unpacklo_epi64(r0, r1);
        const __m256i t1 = _mm256_unpackhi_epi64(r0, r1);
        const __m256i t2 = _mm256_unpacklo_epi64(r2, r3);
        const __m256i t3 = _mm256_unpackhi_epi64(r2, r3);
        compress(v0, v1, v2, v3, _mm256_permute2x128_si256(t0, t2, 0x20));
        compress(v0, v1, v2, v3, _mm256_permute2x128_si256(t1, t3, 0x20));
        compress(v0, v1, v2, v3, _mm256_permute2x128_si256(t0, t2, 0x31));
        compress(v0, v1, v2, v3, _mm256_permute2x128_si256(t1, t3, 0x31));
    }
    for (; word < whole; ++word) {
        const std::size_t at = 8 * word;
        compress(v0, v1, v2, v3,
                 _mm256_setr_epi64x(
                     static_cast<long long>(readLe64(data[0] + at)),
                     static_cast<long long>(readLe64(data[1] + at)),
                     static_cast<long long>(readLe64(data[2] + at)),
                     static_cast<long long>(readLe64(data[3] + at))));
    }

    // Final word: the trailing bytes plus the length in the top byte.
    std::uint64_t last[4];
    for (unsigned lane = 0; lane < 4; ++lane) {
        last[lane] = std::uint64_t(len & 0xff) << 56;
        const std::uint8_t *tail = data[lane] + 8 * whole;
        for (std::size_t i = 0; i < (len & 7); ++i)
            last[lane] |= std::uint64_t(tail[i]) << (8 * i);
    }
    compress(v0, v1, v2, v3,
             _mm256_loadu_si256(reinterpret_cast<const __m256i *>(last)));

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

} // namespace sipavx2
} // namespace morph
