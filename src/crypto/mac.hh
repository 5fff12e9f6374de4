/**
 * @file
 * Message Authentication Codes for data and counter-tree entries.
 *
 * A MAC binds together {address, counter, payload} so that splicing
 * (moving a line), tampering (changing bytes), and replay (restoring
 * an old {data, MAC, counter} tuple) are all detectable — replay is
 * detectable only because the counter itself is protected by the
 * integrity tree (see src/integrity).
 *
 * The paper uses Carter-Wegman style MACs (SGX) / AES-GCM (Yan et al.);
 * we use SipHash-2-4 as the PRF. Tags can be truncated: the Synergy
 * in-line layout stores 54-bit MACs alongside a SEC code, tree entries
 * store 64-bit MACs (Fig 8).
 *
 * compute() is the scalar reference. computeBatch() MACs many messages
 * four lanes per SipHash pass (siphash24x4) with bit-identical
 * tags, reading each message's parts where they lie: it is how
 * IntegrityTree and SecureMemory MAC every level of a path, and the
 * data line, of one functional read or write together.
 */

#ifndef MORPH_CRYPTO_MAC_HH
#define MORPH_CRYPTO_MAC_HH

#include <cstdint>

#include "common/annotations.hh"
#include "common/secure_buf.hh"
#include "common/types.hh"
#include "crypto/siphash.hh"

namespace morph
{

/** One (address, counter, payload) message of a MAC batch. */
struct MacMessage
{
    LineAddr line = 0;
    std::uint64_t counter = 0;
    const CachelineData *payload = nullptr;
    unsigned tagBits = 64; ///< tag truncation width (1..64)
    /** MAC the payload's last word (bytes 56-63, a counter entry's
     *  MAC field) as zero, without writing it. */
    bool zeroMacWord = false;
};

/** Keyed MAC engine over (address, counter, payload) tuples. */
class MacEngine
{
  public:
    explicit MacEngine(MORPH_SECRET const SipKey &key);

    /**
     * MAC of a data or metadata cacheline.
     *
     * @param line    address of the protected line
     * @param counter effective counter value protecting the line
     * @param payload the 64-byte line contents (plaintext or encoded
     *                counter block, per the caller's convention)
     * @param tag_bits tag truncation width (1..64)
     */
    std::uint64_t compute(LineAddr line, std::uint64_t counter,
                          const CachelineData &payload,
                          unsigned tag_bits = 64) const;

    /** MAC of one message: the scalar reference of computeBatch. */
    std::uint64_t compute(const MacMessage &msg) const;

    /**
     * MACs of @p n messages, four per SipHash pass: tags[i] ==
     * compute(msgs[i]), on the @p impl backend (siphashDispatched()
     * unless a test pins one). Each pass reads the lanes' payloads in
     * place. The idle lanes of a partial last pass hash a copy of its
     * last message.
     */
    void computeBatch(const MacMessage *msgs, std::size_t n,
                      std::uint64_t *tags,
                      SipImpl impl = siphashDispatched()) const;

    /**
     * Constant-time comparison of two tags of @p tag_bits width
     * (ctEqual64 under the truncation mask). The result is an
     * explicit declassification boundary: pass/fail is the one bit
     * the verifier is allowed to reveal.
     *
     * @retval true if the tags match
     */
    static bool equal(std::uint64_t a, std::uint64_t b,
                      unsigned tag_bits = 64);

  private:
    MORPH_SECRET SecretArray<std::uint8_t, 16> key_;
};

} // namespace morph

#endif // MORPH_CRYPTO_MAC_HH
