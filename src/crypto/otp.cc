#include "crypto/otp.hh"

#include <cstring>

#include "common/check.hh"
#include "common/secure_buf.hh"

namespace morph
{

CachelineData
OtpEngine::pad(LineAddr line, std::uint64_t counter) const
{
    // Effective counters are at most 56 bits wide in every counter
    // format, leaving the top byte of the seed free for the block index.
    MORPH_CHECK_EQ(counter >> 56, 0u);
    constexpr unsigned nblocks = lineBytes / Aes128::blockBytes;
    static_assert(nblocks == 4, "pad batching assumes 4 AES blocks");

    Aes128::Block seeds[nblocks];
    for (unsigned block = 0; block < nblocks; ++block) {
        seeds[block] = {};
        std::memcpy(seeds[block].data(), &line, 8);
        std::uint64_t ctr_and_block = counter;
        std::memcpy(seeds[block].data() + 8, &ctr_and_block, 8);
        // Fold the block index into the last byte: counters are <= 56
        // bits, so the top byte of the second word is free.
        seeds[block][15] = std::uint8_t(block);
    }
    // All four blocks in one batched call: the AES-NI backend
    // interleaves the rounds so the streams hide each other's latency.
    MORPH_SECRET Aes128::Block pad_blocks[nblocks];
    cipher_.encrypt4(seeds, pad_blocks);

    CachelineData out;
    for (unsigned block = 0; block < nblocks; ++block)
        std::memcpy(out.data() + block * Aes128::blockBytes,
                    pad_blocks[block].data(), Aes128::blockBytes);
    secureWipe(pad_blocks, sizeof(pad_blocks));
    return out;
}

void
OtpEngine::xorPad(CachelineData &data, LineAddr line,
                  std::uint64_t counter) const
{
    MORPH_SECRET CachelineData p = pad(line, counter);
    for (std::size_t i = 0; i < lineBytes; ++i)
        data[i] ^= p[i];
    secureWipe(p.data(), p.size());
}

} // namespace morph
