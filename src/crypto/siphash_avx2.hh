/**
 * @file
 * Internal interface to the SIMD SipHash backends
 * (src/crypto/siphash_avx2.cc).
 *
 * One four-lane kernel source is built twice, each in its own
 * translation unit, because each build needs ISA flags the rest of the
 * tree must not use: sipavx2 with -mavx2, and sipavx512
 * (src/crypto/siphash_avx512.cc) with -mavx512f -mavx512vl, where
 * every rotate is one vprolq. Callers reach them only through
 * siphash24x4, which gates every call on the
 * one-time CPUID dispatch (siphash.cc). When the toolchain or target
 * cannot build a backend, CMake omits its TU and siphash.cc compiles
 * its calls away (MORPH_HAVE_AVX2 / MORPH_HAVE_AVX512 undefined), so
 * the declarations below are always safe to include.
 *
 * Key bytes cross this boundary as the SipKey a MacEngine stores in a
 * SecretArray (passed through raw()); the backends never own or copy
 * them beyond the registers of one call.
 */

#ifndef MORPH_CRYPTO_SIPHASH_AVX2_HH
#define MORPH_CRYPTO_SIPHASH_AVX2_HH

#include <cstddef>
#include <cstdint>

#include "common/annotations.hh"
#include "crypto/siphash.hh"

namespace morph
{

namespace sipavx2
{

/** CPUID probe: true when the CPU executes AVX2 instructions. */
bool cpuSupported();

/** SipHash-2-4 of the four 80-byte messages of @p msgs, one per
 *  64-bit lane. */
void hash4(const SipLines4 &msgs, MORPH_SECRET const SipKey &key,
           std::uint64_t out[4]);

} // namespace sipavx2

/** The same kernel built for AVX-512VL. */
namespace sipavx512
{

/** CPUID probe: true when the CPU executes AVX-512F and AVX-512VL. */
bool cpuSupported();

void hash4(const SipLines4 &msgs, MORPH_SECRET const SipKey &key,
           std::uint64_t out[4]);

} // namespace sipavx512

} // namespace morph

#endif // MORPH_CRYPTO_SIPHASH_AVX2_HH
