/**
 * @file
 * Tests for the functional secure memory: confidentiality, integrity,
 * freshness, overflow re-encryption.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <vector>

#include "common/rng.hh"
#include "secmem/secure_memory.hh"

namespace morph
{
namespace
{

constexpr std::uint64_t MiB = 1ull << 20;

SecureMemoryConfig
testConfig(TreeConfig tree = TreeConfig::morph())
{
    SecureMemoryConfig config;
    config.memBytes = 16 * MiB;
    config.tree = std::move(tree);
    for (unsigned i = 0; i < 16; ++i) {
        config.encryptionKey[i] = std::uint8_t(i + 1);
        config.macKey[i] = std::uint8_t(0x80 + i);
    }
    return config;
}

CachelineData
patternLine(std::uint8_t seed)
{
    CachelineData data;
    for (unsigned i = 0; i < lineBytes; ++i)
        data[i] = std::uint8_t(seed + i * 3);
    return data;
}

CachelineData
randomLine(Rng &rng)
{
    CachelineData data;
    for (auto &b : data)
        b = std::uint8_t(rng.next());
    return data;
}

class SecureMemoryTest : public ::testing::Test
{
  protected:
    SecureMemoryTest() : mem(testConfig()) {}
    SecureMemory mem;
};

TEST_F(SecureMemoryTest, WriteReadRoundTrip)
{
    const CachelineData data = patternLine(7);
    mem.writeLine(42, data);
    const auto back = mem.readLine(42);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, data);
}

TEST_F(SecureMemoryTest, UnwrittenLinesReadAsZero)
{
    const auto back = mem.readLine(999);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, CachelineData{});
}

TEST_F(SecureMemoryTest, CiphertextDiffersFromPlaintext)
{
    const CachelineData data = patternLine(9);
    mem.writeLine(1, data);
    EXPECT_NE(mem.ciphertextOf(1), data);
}

TEST_F(SecureMemoryTest, RewritesChangeCiphertextOfSameData)
{
    // Temporal uniqueness: same plaintext, advancing counter =>
    // different ciphertext each write.
    const CachelineData data = patternLine(11);
    mem.writeLine(2, data);
    const CachelineData first = mem.ciphertextOf(2);
    mem.writeLine(2, data);
    EXPECT_NE(mem.ciphertextOf(2), first);
    EXPECT_EQ(*mem.readLine(2), data);
}

TEST_F(SecureMemoryTest, TamperedCiphertextDetected)
{
    mem.writeLine(3, patternLine(13));
    CachelineData cipher = mem.ciphertextOf(3);
    cipher[17] ^= 0x08;
    mem.tamperCiphertext(3, cipher);

    SecureMemory::Verdict verdict;
    EXPECT_FALSE(mem.readLine(3, verdict).has_value());
    EXPECT_EQ(verdict, SecureMemory::Verdict::DataMacMismatch);
    EXPECT_EQ(mem.stats().integrityFailures, 1u);
}

TEST_F(SecureMemoryTest, TamperedMacDetected)
{
    mem.writeLine(4, patternLine(17));
    mem.tamperMac(4, mem.macOf(4) ^ 1);
    SecureMemory::Verdict verdict;
    EXPECT_FALSE(mem.readLine(4, verdict).has_value());
    EXPECT_EQ(verdict, SecureMemory::Verdict::DataMacMismatch);
}

TEST_F(SecureMemoryTest, SplicingDetected)
{
    // Move line A's {ciphertext, MAC} to line B: the address binding
    // in the MAC must catch it.
    mem.writeLine(5, patternLine(19));
    mem.writeLine(6, patternLine(23));
    // Make counters equal (both written once) so only the address
    // distinguishes them.
    mem.tamperCiphertext(6, mem.ciphertextOf(5));
    mem.tamperMac(6, mem.macOf(5));
    EXPECT_FALSE(mem.readLine(6).has_value());
}

TEST_F(SecureMemoryTest, ReplayOfDataAndMacDetected)
{
    // Full replay of {data, MAC} to their older values: the counter
    // has advanced (it is tree-protected), so the stale MAC fails.
    const CachelineData v1 = patternLine(29);
    const CachelineData v2 = patternLine(31);
    mem.writeLine(7, v1);
    const CachelineData stale_cipher = mem.ciphertextOf(7);
    const std::uint64_t stale_mac = mem.macOf(7);

    mem.writeLine(7, v2);
    ASSERT_EQ(*mem.readLine(7), v2);

    mem.tamperCiphertext(7, stale_cipher);
    mem.tamperMac(7, stale_mac);
    SecureMemory::Verdict verdict;
    EXPECT_FALSE(mem.readLine(7, verdict).has_value());
    EXPECT_EQ(verdict, SecureMemory::Verdict::DataMacMismatch);
}

TEST_F(SecureMemoryTest, FullTupleReplayCaughtByTree)
{
    // Replay {data, MAC, counter-entry}: only the integrity tree can
    // catch this one — the replayed counter makes the data MAC check
    // pass, but the counter entry's own MAC is stale w.r.t. its
    // parent.
    const CachelineData v1 = patternLine(37);
    mem.writeLine(8, v1);
    const CachelineData stale_cipher = mem.ciphertextOf(8);
    const std::uint64_t stale_mac = mem.macOf(8);
    const std::uint64_t entry = mem.geometry().parentIndex(0, 8);
    const CachelineData stale_entry = mem.tree().rawEntry(0, entry);

    mem.writeLine(8, patternLine(41));

    mem.tamperCiphertext(8, stale_cipher);
    mem.tamperMac(8, stale_mac);
    mem.tree().injectEntry(0, entry, stale_entry);

    SecureMemory::Verdict verdict;
    EXPECT_FALSE(mem.readLine(8, verdict).has_value());
    EXPECT_EQ(verdict, SecureMemory::Verdict::TreeMacMismatch);
}

TEST_F(SecureMemoryTest, ByteGranularAccess)
{
    const char message[] = "morphable counters enable compact trees";
    mem.writeBytes(1000, message, sizeof(message));
    char back[sizeof(message)] = {};
    ASSERT_TRUE(mem.readBytes(1000, back, sizeof(back)));
    EXPECT_STREQ(back, message);
}

TEST_F(SecureMemoryTest, ByteAccessAcrossLineBoundary)
{
    std::uint8_t payload[200];
    for (unsigned i = 0; i < sizeof(payload); ++i)
        payload[i] = std::uint8_t(i);
    const Addr addr = 3 * lineBytes - 17; // straddles 4 lines
    mem.writeBytes(addr, payload, sizeof(payload));
    std::uint8_t back[sizeof(payload)] = {};
    ASSERT_TRUE(mem.readBytes(addr, back, sizeof(back)));
    EXPECT_EQ(std::memcmp(back, payload, sizeof(payload)), 0);
}

TEST_F(SecureMemoryTest, WriteBytesRefusesATamperedLine)
{
    // A partial write reads the line first. If that read fails, the
    // write must fail without touching the line: re-MACing the
    // tampered bytes would silently repair the attack.
    CachelineData data{};
    data[0] = 1;
    mem.writeLine(16, data);
    CachelineData tampered = mem.ciphertextOf(16);
    tampered[5] ^= 0x10;
    mem.tamperCiphertext(16, tampered);

    EXPECT_FALSE(mem.writeBytes(16 * lineBytes + 8, "XY", 2));
    EXPECT_EQ(mem.ciphertextOf(16), tampered);
    SecureMemory::Verdict verdict;
    EXPECT_FALSE(mem.readLine(16, verdict).has_value());
    EXPECT_EQ(verdict, SecureMemory::Verdict::DataMacMismatch);
    EXPECT_EQ(mem.stats().writes, 1u);

    // Across lines, the write stops at the failing line; the line
    // before it stays written.
    const Addr start = 16 * lineBytes - 4;
    EXPECT_FALSE(mem.writeBytes(start, "abcdefgh", 8));
    char head[4] = {};
    ASSERT_TRUE(mem.readBytes(start, head, 4));
    EXPECT_EQ(std::memcmp(head, "abcd", 4), 0);
    EXPECT_EQ(mem.stats().writes, 2u);
    EXPECT_FALSE(mem.readLine(16).has_value());
}

TEST_F(SecureMemoryTest, OverflowReencryptsSiblings)
{
    // Under each freshness scheme: line 0 carries a non-zero counter
    // into the overflow, line 1 a counter of one, and line 3 is never
    // materialized. Hammer line 2 until its ZCC entry overflows; the
    // written siblings must be re-encrypted from their pre-bump
    // counters and keep their contents, and the untouched one must
    // not be re-encrypted at all.
    for (const FreshnessScheme scheme :
         {FreshnessScheme::CounterTree, FreshnessScheme::MerkleMacTree}) {
        SCOPED_TRACE(scheme == FreshnessScheme::CounterTree ? "counter"
                                                            : "merkle");
        SecureMemoryConfig config = testConfig();
        config.freshness = scheme;
        SecureMemory m(config);

        const CachelineData a = patternLine(43);
        const CachelineData b = patternLine(47);
        for (int w = 0; w < 3; ++w)
            m.writeLine(0, a);
        m.writeLine(1, b);
        const std::uint64_t a_before = m.counterOf(0);
        ASSERT_GT(a_before, 1u);

        int writes = 0;
        while (m.stats().counterOverflows == 0 && writes < (1 << 17)) {
            m.writeLine(2, patternLine(std::uint8_t(writes)));
            ++writes;
        }
        ASSERT_EQ(m.stats().counterOverflows, 1u);
        EXPECT_NE(m.counterOf(0), a_before); // the pad really changed
        EXPECT_EQ(m.stats().reencryptedLines, 2u); // lines 0 and 1 only

        EXPECT_EQ(*m.readLine(0), a);
        EXPECT_EQ(*m.readLine(1), b);
        EXPECT_EQ(*m.readLine(3), CachelineData{});
        if (scheme == FreshnessScheme::CounterTree)
            EXPECT_TRUE(m.tree().verifyAll());
        else
            EXPECT_TRUE(m.macTree().verifyAll());
        // The re-encrypted siblings were MACed in one batch; every
        // stored data MAC equals the scalar reference.
        const MacEngine scalar(config.macKey);
        for (LineAddr line = 0; line < 4; ++line)
            EXPECT_EQ(m.macOf(line),
                      scalar.compute(line, m.counterOf(line),
                                     m.ciphertextOf(line), config.macBits))
                << "line " << line;
    }
}

TEST_F(SecureMemoryTest, ManyLinesStress)
{
    Rng rng(97);
    std::vector<std::pair<LineAddr, std::uint8_t>> written;
    for (int i = 0; i < 400; ++i) {
        const LineAddr line = rng.below(16 * MiB / lineBytes);
        const std::uint8_t seed = std::uint8_t(rng.next());
        mem.writeLine(line, patternLine(seed));
        written.emplace_back(line, seed);
    }
    // Later writes may have overwritten earlier lines; validate the
    // final value of each distinct line.
    for (auto it = written.rbegin(); it != written.rend(); ++it) {
        bool is_final = true;
        for (auto later = written.rbegin(); later != it; ++later)
            if (later->first == it->first)
                is_final = false;
        if (is_final) {
            EXPECT_EQ(*mem.readLine(it->first),
                      patternLine(it->second));
        }
    }
    EXPECT_TRUE(mem.tree().verifyAll());
}

TEST(SecureMemoryConfigs, RoundTripUnderEveryTreeConfig)
{
    for (const auto &tree :
         {TreeConfig::sgx(), TreeConfig::vault(), TreeConfig::sc64(),
          TreeConfig::sc128(), TreeConfig::morph(),
          TreeConfig::morphZccOnly()}) {
        SecureMemory mem(testConfig(tree));
        const CachelineData data = patternLine(51);
        for (int i = 0; i < 50; ++i)
            mem.writeLine(LineAddr(i % 5), data);
        EXPECT_EQ(*mem.readLine(0), data) << tree.name;
        EXPECT_TRUE(mem.tree().verifyAll()) << tree.name;
    }
}

TEST(SecureMemoryMacWidth, TruncatedMacStillDetectsTampering)
{
    auto config = testConfig();
    config.macBits = 54; // Synergy in-line width
    SecureMemory mem(config);
    mem.writeLine(1, patternLine(53));
    CachelineData cipher = mem.ciphertextOf(1);
    cipher[0] ^= 1;
    mem.tamperCiphertext(1, cipher);
    EXPECT_FALSE(mem.readLine(1).has_value());
}

/**
 * Differential of SecureMemory's paged line store against a map of
 * the records it must hold. The oracle keeps, per touched line, the
 * logical contents (the ciphertext decrypted under the line's current
 * counter) and the stored MAC; a line whose counter moved without
 * being written was re-encrypted, so its expected MAC is recomputed.
 * Lines 0, 63, 64 and 65 straddle a page boundary and the last line
 * ends the address space.
 */
TEST(SecureMemoryPagedStore, MatchesMapOracle)
{
    struct Record
    {
        CachelineData logical; // plaintext under the current counter
        std::uint64_t counter;
        std::uint64_t mac;
    };
    for (const FreshnessScheme scheme :
         {FreshnessScheme::CounterTree, FreshnessScheme::MerkleMacTree}) {
        SCOPED_TRACE(scheme == FreshnessScheme::CounterTree ? "counter"
                                                            : "merkle");
        // SC-64 entries overflow every few dozen writes, so the hot
        // lines re-encrypt their stored siblings many times.
        SecureMemoryConfig config = testConfig(TreeConfig::sc64());
        config.freshness = scheme;
        SecureMemory m(config);
        const MacEngine scalar(config.macKey);
        OtpEngine otp(config.encryptionKey);
        const std::uint64_t mask = (1ull << config.macBits) - 1;
        const LineAddr last = m.geometry().dataLines() - 1;
        const LineAddr edges[] = {0, 63, 64, 65, last, last - 1, last - 64};

        std::map<LineAddr, Record> oracle;
        const auto cipherOf = [&](LineAddr line, const Record &r) {
            CachelineData c = r.logical;
            otp.xorPad(c, line, r.counter);
            return c;
        };
        const auto validMac = [&](LineAddr line, const Record &r) {
            return scalar.compute(line, r.counter, cipherOf(line, r),
                                  config.macBits);
        };
        // A first touch materializes zeros under the current counter.
        const auto touch = [&](LineAddr line) -> Record & {
            auto [it, fresh] = oracle.try_emplace(line);
            if (fresh) {
                it->second = {CachelineData{}, m.counterOf(line), 0};
                it->second.mac = validMac(line, it->second);
            }
            return it->second;
        };

        Rng rng(0xda6e + unsigned(scheme));
        for (unsigned op = 0; op < 6000; ++op) {
            const std::uint64_t where = rng.below(10);
            const LineAddr line = where < 4   ? edges[rng.below(7)]
                                  : where < 9 ? rng.below(200)
                                              : rng.below(last + 1);
            const std::uint64_t kind = rng.below(20);
            if (kind < 8) {
                const CachelineData data = randomLine(rng);
                m.writeLine(line, data);
                Record &r = oracle[line];
                r = {data, m.counterOf(line), 0};
                r.mac = validMac(line, r);
            } else if (kind < 13) {
                Record &r = touch(line);
                const bool intact = ((r.mac ^ validMac(line, r)) & mask) == 0;
                SecureMemory::Verdict verdict;
                const auto got = m.readLine(line, verdict);
                ASSERT_EQ(got.has_value(), intact) << "op " << op;
                if (intact)
                    ASSERT_EQ(*got, r.logical) << "op " << op;
                else
                    ASSERT_EQ(verdict,
                              SecureMemory::Verdict::DataMacMismatch);
            } else if (kind < 15) {
                const Record &r = touch(line);
                ASSERT_EQ(m.ciphertextOf(line), cipherOf(line, r))
                    << "op " << op;
            } else if (kind < 17) {
                const Record &r = touch(line);
                ASSERT_EQ(m.macOf(line), r.mac) << "op " << op;
            } else if (kind < 19) {
                Record &r = touch(line);
                CachelineData c = randomLine(rng);
                m.tamperCiphertext(line, c);
                otp.xorPad(c, line, r.counter);
                r.logical = c;
            } else {
                Record &r = touch(line);
                r.mac = rng.next();
                m.tamperMac(line, r.mac);
            }
            // Overflows re-encrypt every stored sibling: same logical
            // contents, the new counter, a MAC recomputed over the new
            // ciphertext.
            for (auto &[l, r] : oracle) {
                const std::uint64_t now = m.counterOf(l);
                if (now != r.counter) {
                    r.counter = now;
                    r.mac = validMac(l, r);
                }
            }
        }
        EXPECT_GT(m.stats().counterOverflows, 0u);
        EXPECT_GT(m.stats().reencryptedLines, m.stats().counterOverflows);
        for (const auto &[line, r] : oracle) {
            ASSERT_EQ(m.ciphertextOf(line), cipherOf(line, r))
                << "line " << line;
            ASSERT_EQ(m.macOf(line), r.mac) << "line " << line;
        }
    }
}

} // namespace
} // namespace morph
