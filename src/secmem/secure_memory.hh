/**
 * @file
 * Functional secure memory: encryption + MACs + integrity tree.
 *
 * The full SGX-style protection stack over a sparse backing store:
 *
 *  - confidentiality: counter-mode AES encryption of every data line
 *    (src/crypto/otp.hh) under per-line effective counters supplied by
 *    the configured counter organization;
 *  - integrity: a truncated per-line MAC binding {address, counter,
 *    ciphertext} (54-bit, the Synergy in-line layout);
 *  - freshness: the counter integrity tree (src/integrity) protecting
 *    the encryption counters against replay.
 *
 * This is the component examples and correctness tests use: real
 * ciphertext, real tags, real tamper/replay detection, and real
 * re-encryption when counters overflow. The cycle-level cost model
 * lives separately in SecureMemoryModel.
 */

#ifndef MORPH_SECMEM_SECURE_MEMORY_HH
#define MORPH_SECMEM_SECURE_MEMORY_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "common/annotations.hh"
#include "common/sparse_store.hh"
#include "crypto/otp.hh"
#include "integrity/integrity_tree.hh"
#include "integrity/mac_tree.hh"

#ifdef MORPH_AUDIT_PADS
#include "secmem/pad_auditor.hh"
#endif

namespace morph
{

/** How counter freshness is anchored to the chip. */
enum class FreshnessScheme
{
    CounterTree,   ///< Bonsai counter tree (SGX/VAULT/MorphTree style)
    MerkleMacTree, ///< 8-ary tree of MACs over the counter entries
};

/** Configuration of a functional secure memory. */
struct SecureMemoryConfig
{
    std::uint64_t memBytes = 1ull << 30;
    TreeConfig tree = TreeConfig::morph();
    // Raw key material in a by-value setup carrier: the crypto engines
    // copy these into wiped storage (SecretArray) on construction.
    // morphflow: allow(secret-member-wipe): config carrier only
    MORPH_SECRET Aes128::Key encryptionKey{};
    // morphflow: allow(secret-member-wipe): config carrier only
    MORPH_SECRET SipKey macKey{};
    unsigned macBits = 54; ///< Synergy in-line MAC width

    /** Replay-protection structure. With MerkleMacTree, tree.treeLevels
     *  is ignored: the encryption-counter organization still comes
     *  from tree.encryption, but freshness is a MacTree (8 x 64-bit
     *  hashes per node — the paper's §VIII-B1 alternative). */
    FreshnessScheme freshness = FreshnessScheme::CounterTree;
};

/** Functional secure memory device. */
class SecureMemory
{
  public:
    /** Why a read failed verification. */
    enum class Verdict
    {
        Ok,
        DataMacMismatch, ///< data line tampered or replayed
        TreeMacMismatch, ///< counter entry tampered or replayed
    };

    /** Aggregate functional statistics. */
    struct Stats
    {
        std::uint64_t reads = 0;
        std::uint64_t writes = 0;
        std::uint64_t reencryptedLines = 0;
        std::uint64_t counterOverflows = 0;
        std::uint64_t treeOverflows = 0;
        std::uint64_t rebases = 0;
        std::uint64_t integrityFailures = 0;
    };

    explicit SecureMemory(const SecureMemoryConfig &config);

    /** Encrypt and store one line; updates counters, MACs, the tree. */
    void writeLine(LineAddr line, const CachelineData &plaintext);

    /**
     * Verify and decrypt one line.
     *
     * @return the plaintext, or std::nullopt on integrity failure
     */
    std::optional<CachelineData> readLine(LineAddr line);

    /** As readLine, but reports why verification failed. */
    std::optional<CachelineData> readLine(LineAddr line,
                                          Verdict &verdict);

    /**
     * Byte-granular convenience write (line-splitting, RMW). Stops at
     * the first line whose read fails verification, before writing
     * it; the lines before it stay written.
     *
     * @retval false on integrity failure
     */
    bool writeBytes(Addr addr, const void *src, std::size_t len);

    /** Byte-granular convenience read; false on integrity failure. */
    bool readBytes(Addr addr, void *dst, std::size_t len);

    // ---- Adversary interface (physical attacker on the DIMM) ----

    /** Raw stored ciphertext of a line (materializing it if needed). */
    CachelineData ciphertextOf(LineAddr line);

    /** Stored truncated MAC of a line. */
    std::uint64_t macOf(LineAddr line);

    /** Overwrite stored ciphertext, bypassing protection. */
    void tamperCiphertext(LineAddr line, const CachelineData &value);

    /** Overwrite a stored MAC, bypassing protection. */
    void tamperMac(LineAddr line, std::uint64_t value);

    /** Access to the integrity tree (tamper/replay of counters).
     *  Only meaningful under FreshnessScheme::CounterTree. */
    IntegrityTree &tree() { return tree_; }

    /** Access to the Merkle tree (MerkleMacTree scheme only). */
    MacTree &macTree();

    /** Current encryption counter of a line (either scheme). */
    std::uint64_t counterOf(LineAddr line);

    /** Overwrite a stored counter entry, bypassing protection
     *  (physical attack on the counter region; either scheme). */
    void tamperCounterEntry(std::uint64_t entry_index,
                            const CachelineData &image);

    /** Raw stored counter entry (either scheme). An untouched entry
     *  is born first: with its MAC in the counter tree, or published
     *  to the MacTree. */
    const CachelineData &counterEntryOf(std::uint64_t entry_index);

    const TreeGeometry &geometry() const { return tree_.geometry(); }
    const Stats &stats() const { return stats_; }
    const SecureMemoryConfig &config() const { return config_; }

#ifdef MORPH_AUDIT_PADS
    /** Pad-uniqueness auditor (audit builds only): every encryption
     *  pad this device has issued, CHECK-failing on any reuse. */
    const PadAuditor &padAuditor() const { return padAuditor_; }
#endif

  private:
    struct StoredLine
    {
        CachelineData ciphertext;
        std::uint64_t mac;
    };

    /** 64 consecutive lines, stored in place: a line's record is there
     *  once its bit in present is set. The store's directory holds one
     *  entry per touched page, so finding a line's record is one probe
     *  of a small index, and the record's address is known before the
     *  tree walk starts. */
    struct Page
    {
        static constexpr unsigned lineLog2 = 6;
        std::uint64_t present;
        StoredLine lines[1u << lineLog2];
    };
    static_assert(sizeof(StoredLine) == 72 && alignof(StoredLine) == 8,
                  "a record spans exactly two host cache lines");

    /** The slot of @p line within its page. */
    static unsigned
    slotOf(LineAddr line)
    {
        return unsigned(line) & ((1u << Page::lineLog2) - 1);
    }

    /** The record of @p line if it is stored, else nullptr. */
    StoredLine *find(LineAddr line);
    /** The record of @p line, stored on first touch as zeros. */
    StoredLine &materialize(LineAddr line);
    /** The ciphertext of a line never written: zeros under
     *  @p counter. */
    CachelineData zeroLine(LineAddr line, std::uint64_t counter);
    /** Store @p record as the first image of @p line, never written,
     *  encrypted under @p counter. */
    StoredLine &storeFirstImage(LineAddr line, std::uint64_t counter,
                                const StoredLine &record);
    std::uint64_t dataMac(LineAddr line, std::uint64_t counter,
                          const CachelineData &ciphertext) const;

    /** Re-encrypt every stored sibling of @p line in @p reencrypt from
     *  its counter in @p before (the level-0 entry before the bump) to
     *  its current one; their data MACs are packed four per pass. */
    void reencryptSiblings(LineAddr line,
                           const std::vector<LineAddr> &reencrypt,
                           const CachelineData &before);

    /** Bump the counter of @p line, under either freshness scheme;
     *  fills the re-encryption work exactly as the tree would. Under
     *  the counter tree the tree's MACs stay stale until sealWrite. */
    IntegrityTree::BumpResult bumpCounter(LineAddr line);

    /** Finish the bump of @p line; returns the data MAC of its new
     *  @p ciphertext under @p counter, computed in the tree's batch
     *  under the counter tree. */
    std::uint64_t sealWrite(LineAddr line, std::uint64_t counter,
                            const CachelineData &ciphertext);

    /** Freshness check for the counter protecting @p line. With
     *  @p data (counter-tree scheme only), also computes the line's
     *  counter and data MAC in the tree's passes. */
    bool verifyFreshness(LineAddr line,
                         IntegrityTree::DataLane *data = nullptr);

    /** Audit hook called at every *encryption* pad issue (decryption
     *  legitimately re-derives pads). No-op unless MORPH_AUDIT_PADS. */
    void auditEncrypt(LineAddr line, std::uint64_t counter);

    SecureMemoryConfig config_;
    OtpEngine otp_;
    IntegrityTree tree_; // its MacEngine also MACs the data lines
    std::optional<MacTree> merkle_;
    SparseStore<Page> store_; // keyed by line >> Page::lineLog2
    Stats stats_;

#ifdef MORPH_AUDIT_PADS
    PadAuditor padAuditor_;
#endif
};

} // namespace morph

#endif // MORPH_SECMEM_SECURE_MEMORY_HH
