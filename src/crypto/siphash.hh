/**
 * @file
 * SipHash-2-4 keyed pseudo-random function (Aumasson & Bernstein).
 *
 * Serves as the MAC primitive for data and counter-tree entries. The
 * paper's designs use truncated MACs (54-bit in the Synergy in-line
 * layout, 64-bit in tree entries); SipHash's 64-bit output truncates
 * cleanly. Verified against the reference test vectors in the tests.
 *
 * siphash24x4 hashes four equal-length messages in one pass. Two
 * bit-identical backends sit behind it: a loop over the scalar
 * siphash24 (the reference) and an AVX2 kernel that runs the four
 * states in the lanes of one vector (src/crypto/siphash_avx2.cc).
 * siphashDispatched() picks one once per process by CPUID alone;
 * tests pin a backend by passing it explicitly.
 */

#ifndef MORPH_CRYPTO_SIPHASH_HH
#define MORPH_CRYPTO_SIPHASH_HH

#include <array>
#include <cstddef>
#include <cstdint>

#include "common/annotations.hh"

namespace morph
{

/** 128-bit key for SipHash. */
using SipKey = std::array<std::uint8_t, 16>;

/**
 * Compute SipHash-2-4 of @p len bytes at @p data under @p key.
 *
 * @return the 64-bit tag
 */
std::uint64_t siphash24(const void *data, std::size_t len,
                        MORPH_SECRET const SipKey &key);

/** Backend of siphash24x4. */
enum class SipImpl : std::uint8_t
{
    Portable, ///< four calls of the scalar siphash24
    Avx2,     ///< four lanes of one AVX2 pass
};

/**
 * SipHash-2-4 of four @p len-byte messages under one @p key, in one
 * pass: out[i] == siphash24(data[i], len, key) for every lane.
 * @p impl must be Portable, or Avx2 when siphashAvx2Available()
 * (MORPH_CHECK).
 */
void siphash24x4(const std::uint8_t *const data[4], std::size_t len,
                 MORPH_SECRET const SipKey &key, std::uint64_t out[4],
                 SipImpl impl);

/** True if the build and the CPU both support the AVX2 backend. */
bool siphashAvx2Available();

/** Avx2 when siphashAvx2Available(), else Portable; the CPUID probe
 *  is latched on first use. */
SipImpl siphashDispatched();

} // namespace morph

#endif // MORPH_CRYPTO_SIPHASH_HH
