#include "crypto/aes128.hh"

#include <cstdlib>
#include <cstring>

#include "common/check.hh"
#include "common/secure_buf.hh"
#include "crypto/aes_ni.hh"

// This functional AES model uses table lookups indexed by key-mixed
// state — the classic cache side channel, out of scope for a
// simulator whose timing model never executes AES on secret-adjacent
// hardware. docs/SECURITY.md documents the accepted risk.
// morphflow: allow-file(secret-subscript): table-based S-box/InvSbox
// lookups are inherent to this functional AES model.

namespace morph
{

namespace
{

// FIPS-197 S-box.
constexpr std::uint8_t sbox[256] = {
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67,
    0x2b, 0xfe, 0xd7, 0xab, 0x76, 0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59,
    0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0, 0xb7,
    0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1,
    0x71, 0xd8, 0x31, 0x15, 0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05,
    0x9a, 0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75, 0x09, 0x83,
    0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29,
    0xe3, 0x2f, 0x84, 0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b,
    0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf, 0xd0, 0xef, 0xaa,
    0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c,
    0x9f, 0xa8, 0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc,
    0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2, 0xcd, 0x0c, 0x13, 0xec,
    0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19,
    0x73, 0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee,
    0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb, 0xe0, 0x32, 0x3a, 0x0a, 0x49,
    0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
    0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4,
    0xea, 0x65, 0x7a, 0xae, 0x08, 0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6,
    0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a, 0x70,
    0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9,
    0x86, 0xc1, 0x1d, 0x9e, 0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e,
    0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf, 0x8c, 0xa1,
    0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0,
    0x54, 0xbb, 0x16,
};

// Inverse S-box, computed at startup from sbox.
struct InvSbox
{
    std::uint8_t table[256];
    InvSbox()
    {
        for (unsigned i = 0; i < 256; ++i)
            table[sbox[i]] = std::uint8_t(i);
    }
};
const InvSbox invSbox;

// Multiply by x in GF(2^8) with the AES polynomial.
inline std::uint8_t
xtime(std::uint8_t a)
{
    // Same accepted-risk class as the S-box lookups above.
    // morphflow: allow(secret-branch): value-dependent reduce select
    return std::uint8_t((a << 1) ^ ((a & 0x80) ? 0x1b : 0x00));
}

// General GF(2^8) multiply (used by InvMixColumns).
inline std::uint8_t
gmul(std::uint8_t a, std::uint8_t b)
{
    std::uint8_t p = 0;
    for (int i = 0; i < 8; ++i) {
        if (b & 1)
            p ^= a;
        a = xtime(a);
        b >>= 1;
    }
    return p;
}

constexpr std::uint8_t rcon[10] = {
    0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36,
};

inline std::uint32_t
subWord(std::uint32_t w)
{
    return (std::uint32_t(sbox[(w >> 24) & 0xff]) << 24) |
           (std::uint32_t(sbox[(w >> 16) & 0xff]) << 16) |
           (std::uint32_t(sbox[(w >> 8) & 0xff]) << 8) |
           std::uint32_t(sbox[w & 0xff]);
}

inline std::uint32_t
rotWord(std::uint32_t w)
{
    return (w << 8) | (w >> 24);
}

// State is column-major: state[4*c + r] = byte at row r, column c.
void
addRoundKey(std::uint8_t *state, const std::uint32_t *rk)
{
    for (int c = 0; c < 4; ++c) {
        const std::uint32_t w = rk[c];
        state[4 * c + 0] ^= std::uint8_t(w >> 24);
        state[4 * c + 1] ^= std::uint8_t(w >> 16);
        state[4 * c + 2] ^= std::uint8_t(w >> 8);
        state[4 * c + 3] ^= std::uint8_t(w);
    }
}

void
subBytes(std::uint8_t *state)
{
    for (int i = 0; i < 16; ++i)
        state[i] = sbox[state[i]];
}

void
invSubBytes(std::uint8_t *state)
{
    for (int i = 0; i < 16; ++i)
        state[i] = invSbox.table[state[i]];
}

void
shiftRows(std::uint8_t *state)
{
    std::uint8_t tmp[16];
    std::memcpy(tmp, state, 16);
    for (int r = 1; r < 4; ++r)
        for (int c = 0; c < 4; ++c)
            state[4 * c + r] = tmp[4 * ((c + r) % 4) + r];
}

void
invShiftRows(std::uint8_t *state)
{
    std::uint8_t tmp[16];
    std::memcpy(tmp, state, 16);
    for (int r = 1; r < 4; ++r)
        for (int c = 0; c < 4; ++c)
            state[4 * ((c + r) % 4) + r] = tmp[4 * c + r];
}

void
mixColumns(std::uint8_t *state)
{
    for (int c = 0; c < 4; ++c) {
        std::uint8_t *col = state + 4 * c;
        const std::uint8_t a0 = col[0], a1 = col[1], a2 = col[2],
                           a3 = col[3];
        const std::uint8_t all = a0 ^ a1 ^ a2 ^ a3;
        col[0] = std::uint8_t(a0 ^ all ^ xtime(std::uint8_t(a0 ^ a1)));
        col[1] = std::uint8_t(a1 ^ all ^ xtime(std::uint8_t(a1 ^ a2)));
        col[2] = std::uint8_t(a2 ^ all ^ xtime(std::uint8_t(a2 ^ a3)));
        col[3] = std::uint8_t(a3 ^ all ^ xtime(std::uint8_t(a3 ^ a0)));
    }
}

void
invMixColumns(std::uint8_t *state)
{
    for (int c = 0; c < 4; ++c) {
        std::uint8_t *col = state + 4 * c;
        const std::uint8_t a0 = col[0], a1 = col[1], a2 = col[2],
                           a3 = col[3];
        col[0] = std::uint8_t(gmul(a0, 14) ^ gmul(a1, 11) ^ gmul(a2, 13) ^
                              gmul(a3, 9));
        col[1] = std::uint8_t(gmul(a0, 9) ^ gmul(a1, 14) ^ gmul(a2, 11) ^
                              gmul(a3, 13));
        col[2] = std::uint8_t(gmul(a0, 13) ^ gmul(a1, 9) ^ gmul(a2, 14) ^
                              gmul(a3, 11));
        col[3] = std::uint8_t(gmul(a0, 11) ^ gmul(a1, 13) ^ gmul(a2, 9) ^
                              gmul(a3, 14));
    }
}

} // namespace

bool
Aes128::aesniAvailable()
{
#ifdef MORPH_HAVE_AESNI
    static const bool supported = aesni::cpuSupported();
    return supported;
#else
    return false;
#endif
}

AesImpl
Aes128::dispatched()
{
    // Resolved exactly once per process (thread-safe magic-static
    // init); const thereafter, so there is no mutable dispatch state
    // for morphflow's race-naked-static rule to object to. The env
    // override is read at latch time only — flipping it later in the
    // same process has no effect (docs/PERFORMANCE.md).
    static const AesImpl resolved = [] {
        const char *force = std::getenv("MORPH_FORCE_PORTABLE_AES");
        const bool forced = force != nullptr && force[0] != '\0' &&
                            !(force[0] == '0' && force[1] == '\0');
        if (forced)
            return AesImpl::Portable;
        return aesniAvailable() ? AesImpl::Aesni : AesImpl::Portable;
    }();
    return resolved;
}

const char *
Aes128::implName(AesImpl impl)
{
    switch (impl) {
      case AesImpl::Auto:
        return "auto";
      case AesImpl::Aesni:
        return "aesni";
      case AesImpl::Portable:
      default:
        return "portable";
    }
}

Aes128::Aes128(MORPH_SECRET const Key &key, AesImpl impl)
    : impl_(impl == AesImpl::Auto ? dispatched() : impl)
{
    MORPH_CHECK(impl_ != AesImpl::Aesni || aesniAvailable());
    // First four words come straight from the key (big-endian words).
    for (int i = 0; i < 4; ++i) {
        roundKeys_[std::size_t(i)] =
            (std::uint32_t(key[std::size_t(4 * i)]) << 24) |
            (std::uint32_t(key[std::size_t(4 * i + 1)]) << 16) |
            (std::uint32_t(key[std::size_t(4 * i + 2)]) << 8) |
            std::uint32_t(key[std::size_t(4 * i + 3)]);
    }
    for (unsigned i = 4; i < 4 * (rounds + 1); ++i) {
        std::uint32_t temp = roundKeys_[i - 1];
        if (i % 4 == 0) {
            temp = subWord(rotWord(temp)) ^
                   (std::uint32_t(rcon[i / 4 - 1]) << 24);
        }
        roundKeys_[i] = roundKeys_[i - 4] ^ temp;
    }

    if (impl_ == AesImpl::Aesni) {
        // Serialize the word schedule to the byte order AES-NI loads:
        // byte 4c+j of round r is byte j (big-endian) of word 4r+c —
        // exactly the FIPS-197 byte stream, column-major like the
        // portable state. The decryption schedule is emitted in
        // aesdec application order with InvMixColumns folded into the
        // nine middle keys (the aesimc transform, computed here with
        // the same portable invMixColumns the table path uses).
        for (unsigned r = 0; r <= rounds; ++r) {
            for (unsigned c = 0; c < 4; ++c) {
                const std::uint32_t w = roundKeys_[4 * r + c];
                std::uint8_t *out = encKeysNi_.data() + 16 * r + 4 * c;
                out[0] = std::uint8_t(w >> 24);
                out[1] = std::uint8_t(w >> 16);
                out[2] = std::uint8_t(w >> 8);
                out[3] = std::uint8_t(w);
            }
        }
        for (unsigned slot = 0; slot <= rounds; ++slot) {
            std::memcpy(decKeysNi_.data() + 16 * slot,
                        encKeysNi_.data() + 16 * (rounds - slot), 16);
            if (slot != 0 && slot != rounds)
                invMixColumns(decKeysNi_.data() + 16 * slot);
        }
    }
}

Aes128::Block
Aes128::encrypt(const Block &plaintext) const
{
#ifdef MORPH_HAVE_AESNI
    if (impl_ == AesImpl::Aesni)
        return aesni::encryptBlock(encKeysNi_.data(), plaintext);
#endif
    MORPH_SECRET std::uint8_t state[16];
    std::memcpy(state, plaintext.data(), 16);

    addRoundKey(state, &roundKeys_[0]);
    for (unsigned round = 1; round < rounds; ++round) {
        subBytes(state);
        shiftRows(state);
        mixColumns(state);
        addRoundKey(state, &roundKeys_[4 * round]);
    }
    subBytes(state);
    shiftRows(state);
    addRoundKey(state, &roundKeys_[4 * rounds]);

    Block out;
    std::memcpy(out.data(), state, 16);
    secureWipe(state, sizeof(state));
    // Ciphertext lives in untrusted memory; callers that use a block
    // as OTP pad material re-annotate it MORPH_SECRET at the use site.
    return MORPH_DECLASSIFY(out);
}

Aes128::Block
Aes128::decrypt(const Block &ciphertext) const
{
#ifdef MORPH_HAVE_AESNI
    if (impl_ == AesImpl::Aesni)
        return aesni::decryptBlock(decKeysNi_.data(), ciphertext);
#endif
    MORPH_SECRET std::uint8_t state[16];
    std::memcpy(state, ciphertext.data(), 16);

    addRoundKey(state, &roundKeys_[4 * rounds]);
    for (unsigned round = rounds - 1; round >= 1; --round) {
        invShiftRows(state);
        invSubBytes(state);
        addRoundKey(state, &roundKeys_[4 * round]);
        invMixColumns(state);
    }
    invShiftRows(state);
    invSubBytes(state);
    addRoundKey(state, &roundKeys_[0]);

    Block out;
    std::memcpy(out.data(), state, 16);
    secureWipe(state, sizeof(state));
    // Same boundary as encrypt(): the recovered plaintext cacheline is
    // ordinary program data, not key material.
    return MORPH_DECLASSIFY(out);
}

void
Aes128::encrypt4(const Block in[4], Block out[4]) const
{
#ifdef MORPH_HAVE_AESNI
    if (impl_ == AesImpl::Aesni) {
        aesni::encryptBlocks4(encKeysNi_.data(), in, out);
        return;
    }
#endif
    for (unsigned i = 0; i < 4; ++i)
        out[i] = encrypt(in[i]);
}

} // namespace morph
