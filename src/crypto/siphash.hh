/**
 * @file
 * SipHash-2-4 keyed pseudo-random function (Aumasson & Bernstein).
 *
 * Serves as the MAC primitive for data and counter-tree entries. The
 * paper's designs use truncated MACs (54-bit in the Synergy in-line
 * layout, 64-bit in tree entries); SipHash's 64-bit output truncates
 * cleanly. Verified against the reference test vectors in the tests.
 *
 * siphash24x4 hashes four 80-byte MAC messages (line || counter ||
 * payload) in one pass, reading each one's parts where they lie,
 * without assembling the message in a buffer. Three bit-identical
 * backends sit behind it: a loop over the scalar siphash24 (the
 * reference), and one four-lane kernel that runs the four states in
 * the lanes of one vector (src/crypto/siphash_avx2.cc), built once for
 * AVX2 and once for AVX-512VL, whose rotates are single instructions.
 * siphashDispatched() picks the widest the CPU runs, once per process
 * by CPUID alone; tests pin a backend by passing it explicitly.
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
    Avx512,   ///< the AVX2 kernel with AVX-512VL rotates
};

/** Bytes of one MAC message: line || counter || 64-byte payload. */
constexpr std::size_t sipLineBytes = 80;

/**
 * Four MAC messages, one per lane, as their parts: lane i is the
 * little-endian words line[i], counter[i], then the eight words of the
 * 64 bytes at payload[i], the last of them ANDed with lastMask[i]
 * (~0 keeps it, 0 hashes it as zero).
 */
struct SipLines4
{
    std::uint64_t line[4];
    std::uint64_t counter[4];
    const std::uint8_t *payload[4];
    std::uint64_t lastMask[4];
};

/**
 * SipHash-2-4 of the four 80-byte messages of @p msgs under one
 * @p key, in one pass: out[i] is siphash24 of lane i's message,
 * serialized. @p impl must be Portable or an available SIMD backend
 * (MORPH_CHECK).
 */
void siphash24x4(const SipLines4 &msgs, MORPH_SECRET const SipKey &key,
                 std::uint64_t out[4], SipImpl impl);

/** True if the build and the CPU both support the AVX2 backend. */
bool siphashAvx2Available();

/** True if the build and the CPU both support the AVX-512VL backend. */
bool siphashAvx512Available();

/** Avx512 when siphashAvx512Available(), else Avx2 when
 *  siphashAvx2Available(), else Portable; the CPUID probes are latched
 *  on first use. */
SipImpl siphashDispatched();

} // namespace morph

#endif // MORPH_CRYPTO_SIPHASH_HH
