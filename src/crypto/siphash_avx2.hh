/**
 * @file
 * Internal interface to the AVX2 SipHash backend
 * (src/crypto/siphash_avx2.cc).
 *
 * The backend is a separate translation unit because it must be
 * compiled with -mavx2 while the rest of the tree stays baseline-ISA;
 * callers reach it only through siphash24x4, which gates every call on
 * the one-time CPUID dispatch (siphash.cc). When the toolchain or
 * target cannot build the backend, CMake omits the TU and siphash.cc
 * compiles the calls away (MORPH_HAVE_AVX2 undefined), so the
 * declarations below are always safe to include.
 *
 * Key bytes cross this boundary as the SipKey a MacEngine stores in a
 * SecretArray (passed through raw()); the backend never owns or
 * copies them beyond the registers of one call.
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

/** SipHash-2-4 of four @p len-byte messages, one per 64-bit lane. */
void hash4(const std::uint8_t *const data[4], std::size_t len,
           MORPH_SECRET const SipKey &key, std::uint64_t out[4]);

} // namespace sipavx2
} // namespace morph

#endif // MORPH_CRYPTO_SIPHASH_AVX2_HH
