/**
 * @file
 * Tests for SecureMemory under the Merkle MAC-tree freshness scheme:
 * functional equivalence with the counter-tree scheme, plus the
 * scheme-specific replay paths.
 */

#include <gtest/gtest.h>

#include "secmem/secure_memory.hh"

namespace morph
{
namespace
{

constexpr std::uint64_t MiB = 1ull << 20;

SecureMemoryConfig
merkleConfig()
{
    SecureMemoryConfig config;
    config.memBytes = 16 * MiB;
    config.tree = TreeConfig::sc64();
    config.freshness = FreshnessScheme::MerkleMacTree;
    for (unsigned i = 0; i < 16; ++i) {
        config.encryptionKey[i] = std::uint8_t(0x21 + i);
        config.macKey[i] = std::uint8_t(0x51 + i);
    }
    return config;
}

CachelineData
patternLine(std::uint8_t seed)
{
    CachelineData data;
    for (unsigned i = 0; i < lineBytes; ++i)
        data[i] = std::uint8_t(seed + i * 5);
    return data;
}

class MerkleSchemeTest : public ::testing::Test
{
  protected:
    MerkleSchemeTest() : mem(merkleConfig()) {}
    SecureMemory mem;
};

TEST_F(MerkleSchemeTest, WriteReadRoundTrip)
{
    const CachelineData data = patternLine(3);
    mem.writeLine(10, data);
    const auto back = mem.readLine(10);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, data);
}

TEST_F(MerkleSchemeTest, UnwrittenLinesReadAsZero)
{
    const auto back = mem.readLine(4242);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, CachelineData{});
}

TEST_F(MerkleSchemeTest, CountersAdvance)
{
    EXPECT_EQ(mem.counterOf(5), 0u);
    mem.writeLine(5, patternLine(1));
    EXPECT_EQ(mem.counterOf(5), 1u);
    mem.writeLine(5, patternLine(2));
    EXPECT_EQ(mem.counterOf(5), 2u);
    EXPECT_EQ(mem.counterOf(6), 0u);
}

TEST_F(MerkleSchemeTest, TamperedCiphertextDetected)
{
    mem.writeLine(7, patternLine(9));
    CachelineData cipher = mem.ciphertextOf(7);
    cipher[30] ^= 0x04;
    mem.tamperCiphertext(7, cipher);
    SecureMemory::Verdict verdict;
    EXPECT_FALSE(mem.readLine(7, verdict).has_value());
    EXPECT_EQ(verdict, SecureMemory::Verdict::DataMacMismatch);
}

TEST_F(MerkleSchemeTest, CounterEntryReplayCaughtByMerkleTree)
{
    // Full-tuple replay: stale {data, MAC, counter entry}. The
    // counter entry's leaf hash no longer matches the Merkle path.
    const std::uint64_t entry = mem.geometry().parentIndex(0, 8);
    mem.writeLine(8, patternLine(11));
    const CachelineData stale_cipher = mem.ciphertextOf(8);
    const std::uint64_t stale_mac = mem.macOf(8);
    const CachelineData stale_entry = mem.counterEntryOf(entry);

    mem.writeLine(8, patternLine(13));

    mem.tamperCiphertext(8, stale_cipher);
    mem.tamperMac(8, stale_mac);
    mem.tamperCounterEntry(entry, stale_entry);

    SecureMemory::Verdict verdict;
    EXPECT_FALSE(mem.readLine(8, verdict).has_value());
    EXPECT_EQ(verdict, SecureMemory::Verdict::TreeMacMismatch);
}

TEST_F(MerkleSchemeTest, CounterEntryBitFlipDetected)
{
    mem.writeLine(9, patternLine(17));
    const std::uint64_t entry = mem.geometry().parentIndex(0, 9);
    CachelineData image = mem.counterEntryOf(entry);
    image[5] ^= 0x10;
    mem.tamperCounterEntry(entry, image);
    SecureMemory::Verdict verdict;
    EXPECT_FALSE(mem.readLine(9, verdict).has_value());
    EXPECT_EQ(verdict, SecureMemory::Verdict::TreeMacMismatch);
}

TEST_F(MerkleSchemeTest, OverflowReencryptionStillWorks)
{
    // SC-64 counters overflow every 64 writes; under each freshness
    // scheme the written sibling (line 0, counter 1 before the first
    // overflow) must survive every re-encryption, and the never
    // materialized sibling (line 2) must never be re-encrypted.
    for (const FreshnessScheme scheme :
         {FreshnessScheme::MerkleMacTree, FreshnessScheme::CounterTree}) {
        SCOPED_TRACE(scheme == FreshnessScheme::CounterTree ? "counter"
                                                            : "merkle");
        SecureMemoryConfig config = merkleConfig();
        config.freshness = scheme;
        SecureMemory m(config);

        const CachelineData a = patternLine(21);
        m.writeLine(0, a);
        ASSERT_EQ(m.counterOf(0), 1u);
        // After every re-encryption, the re-encrypted sibling and the
        // written line carry the scalar reference MAC.
        const MacEngine scalar(config.macKey);
        std::uint64_t overflows = 0;
        for (int w = 0; w < 200; ++w) {
            m.writeLine(1, patternLine(std::uint8_t(w)));
            if (m.stats().counterOverflows == overflows)
                continue;
            overflows = m.stats().counterOverflows;
            for (LineAddr line = 0; line < 2; ++line)
                ASSERT_EQ(m.macOf(line),
                          scalar.compute(line, m.counterOf(line),
                                         m.ciphertextOf(line),
                                         config.macBits))
                    << "line " << line << ", write " << w;
        }
        EXPECT_GT(m.stats().counterOverflows, 0u);
        EXPECT_EQ(m.stats().reencryptedLines,
                  m.stats().counterOverflows); // line 0, once each
        EXPECT_EQ(*m.readLine(0), a);
        EXPECT_EQ(*m.readLine(2), CachelineData{});
        if (scheme == FreshnessScheme::MerkleMacTree)
            EXPECT_TRUE(m.macTree().verifyAll());
        else
            EXPECT_TRUE(m.tree().verifyAll());
    }
}

TEST_F(MerkleSchemeTest, MacTreeAccessorGuarded)
{
    SecureMemoryConfig counter_config = merkleConfig();
    counter_config.freshness = FreshnessScheme::CounterTree;
    SecureMemory counter_mem(counter_config);
    EXPECT_EXIT(counter_mem.macTree(), ::testing::ExitedWithCode(1),
                "MacTree");
}

TEST(MerkleSchemeEquivalence, BothSchemesAgreeFunctionally)
{
    SecureMemoryConfig merkle_config = merkleConfig();
    SecureMemoryConfig counter_config = merkleConfig();
    counter_config.freshness = FreshnessScheme::CounterTree;

    SecureMemory a(merkle_config), b(counter_config);
    for (int i = 0; i < 300; ++i) {
        const LineAddr line = LineAddr(i * 37 % 1000);
        const CachelineData data = patternLine(std::uint8_t(i));
        a.writeLine(line, data);
        b.writeLine(line, data);
        ASSERT_EQ(a.counterOf(line), b.counterOf(line));
        ASSERT_EQ(*a.readLine(line), *b.readLine(line));
        // Same keys, same counters: identical ciphertext too.
        ASSERT_EQ(a.ciphertextOf(line), b.ciphertextOf(line));
    }
}

} // namespace
} // namespace morph
