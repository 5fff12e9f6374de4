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
 * compute() is the scalar reference. MacPacker MACs many messages four
 * lanes per SipHash pass (siphash24x4) with bit-identical tags,
 * writing each message's parts where they lie straight into the lanes
 * of the pass: it is how IntegrityTree and SecureMemory MAC every
 * level of a path, and the data line, of one functional read or write
 * together.
 *
 * Tag widths are the caller's to check (SecureMemory checks its MAC
 * width once, at construction): every width here is 1..64 bits.
 */

#ifndef MORPH_CRYPTO_MAC_HH
#define MORPH_CRYPTO_MAC_HH

#include <cstdint>

#include "common/annotations.hh"
#include "common/check.hh"
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

/** The mask of a @p tag_bits-wide tag (1..64 bits). */
inline std::uint64_t
tagMask(unsigned tag_bits)
{
    MORPH_DCHECK(tag_bits >= 1 && tag_bits <= 64);
    return tag_bits == 64 ? ~0ull : (1ull << tag_bits) - 1;
}

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

    /** MAC of one message: the scalar reference of MacPacker. */
    std::uint64_t compute(const MacMessage &msg) const;

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
    friend class MacPacker;

    MORPH_SECRET SecretArray<std::uint8_t, 16> key_;
    SipImpl impl_; ///< siphashDispatched(), latched at construction
};

/**
 * MAC messages packed in place, four to a SipHash pass. Each add
 * writes one message's parts (line, counter, payload pointer, mask of
 * the last payload word) straight into the next lane of a SipLines4,
 * with where its tag goes; the fourth add hashes the pass and delivers
 * its tags. finish() hashes a last partial pass, whose idle lanes
 * repeat its last lane; a packer given no lane hashes nothing. Every
 * tag equals MacEngine::compute of its message.
 *
 * A data lane stores its truncated tag in the caller's word. An entry
 * lane hashes its payload's last word (a counter entry's MAC field) as
 * zero, then seals the tag into that word or checks it against the
 * word. A payload must stay where it is, unchanged, until its pass is
 * hashed: at the fourth add counting its own, or at finish().
 */
class MacPacker
{
  public:
    explicit MacPacker(const MacEngine &engine)
        : MacPacker(engine, engine.impl_)
    {
    }

    /** A packer on the @p impl backend (tests pin one). */
    MacPacker(const MacEngine &engine, SipImpl impl)
        : engine_(engine), impl_(impl)
    {
    }

    MacPacker(const MacPacker &) = delete;
    MacPacker &operator=(const MacPacker &) = delete;

    /** Lane for @p msg; its tag goes to @p tag. */
    void
    data(const MacMessage &msg, std::uint64_t &tag)
    {
        add(msg.line, msg.counter, *msg.payload,
            msg.zeroMacWord ? 0 : ~0ull, tagMask(msg.tagBits),
            reinterpret_cast<std::uint8_t *>(&tag));
    }

    /** Lane for the entry @p image at @p line under its parent's
     *  @p counter; its 64-bit tag becomes the entry's MAC field. */
    void
    seal(LineAddr line, std::uint64_t counter, CachelineData &image)
    {
        add(line, counter, image, 0, ~0ull, image.data() + macByte);
    }

    /** As seal(), but the tag is compared with the MAC field. */
    void
    check(LineAddr line, std::uint64_t counter, const CachelineData &image)
    {
        add(line, counter, image, 0, ~0ull, nullptr);
    }

    /**
     * Hash the lanes of the partial pass, if any.
     *
     * @retval true if every checked entry's MAC field matched its tag
     *         since the last finish()
     */
    bool
    finish()
    {
        if (lanes_ != 0)
            hash();
        const std::uint64_t mismatch = mismatch_;
        mismatch_ = 0;
        return ctEqual64(mismatch, 0);
    }

  private:
    /** Byte offset of an entry's MAC field, its last word. */
    static constexpr std::size_t macByte = lineBytes - 8;

    void
    add(LineAddr line, std::uint64_t counter, const CachelineData &payload,
        std::uint64_t last_mask, std::uint64_t tag_mask, std::uint8_t *out)
    {
        pass_.line[lanes_] = line;
        pass_.counter[lanes_] = counter;
        pass_.payload[lanes_] = payload.data();
        pass_.lastMask[lanes_] = last_mask;
        tagMask_[lanes_] = tag_mask;
        out_[lanes_] = out;
        if (++lanes_ == 4)
            hash();
    }

    /** Hash lanes [0, lanes_) in one pass, deliver their tags. */
    void hash();

    const MacEngine &engine_;
    SipImpl impl_;
    // Lanes [0, lanes_) of these are filled; no other lane is read.
    SipLines4 pass_;
    std::uint64_t tagMask_[4];
    /** Where lane i's tag goes; nullptr compares it with the entry's
     *  MAC field instead. */
    std::uint8_t *out_[4];
    unsigned lanes_ = 0;
    /** OR of (MAC field XOR tag) over the checked lanes: one
     *  constant-time compare covers them all. */
    std::uint64_t mismatch_ = 0;
};

} // namespace morph

#endif // MORPH_CRYPTO_MAC_HH
