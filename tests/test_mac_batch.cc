/**
 * @file
 * Batched MACs: siphash24x4 and MacPacker against the scalar
 * reference on every backend, and the batched IntegrityTree /
 * SecureMemory paths against scalar recomputation of every stored MAC.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <ostream>
#include <vector>

#include "common/rng.hh"
#include "crypto/mac.hh"
#include "integrity/integrity_tree.hh"
#include "secmem/secure_memory.hh"

namespace morph
{
namespace
{

constexpr std::uint64_t KiB = 1ull << 10;
constexpr std::uint64_t MiB = 1ull << 20;
constexpr std::uint64_t GiB = 1ull << 30;

/** Every backend this build and CPU can run. */
std::vector<SipImpl>
backends()
{
    std::vector<SipImpl> out{SipImpl::Portable};
    if (siphashAvx2Available())
        out.push_back(SipImpl::Avx2);
    if (siphashAvx512Available())
        out.push_back(SipImpl::Avx512);
    return out;
}

const char *
nameOf(SipImpl impl)
{
    return impl == SipImpl::Avx512 ? "avx512"
           : impl == SipImpl::Avx2 ? "avx2"
                                   : "portable";
}

SipKey
randomKey(Rng &rng)
{
    SipKey key;
    for (auto &b : key)
        b = std::uint8_t(rng.next());
    return key;
}

CachelineData
randomLine(Rng &rng)
{
    CachelineData line;
    for (auto &b : line)
        b = std::uint8_t(rng.next());
    return line;
}

TEST(SipHashBatch, DispatchFollowsCpuid)
{
    // The widest backend the CPU runs.
    EXPECT_EQ(siphashDispatched(),
              siphashAvx512Available() ? SipImpl::Avx512
              : siphashAvx2Available() ? SipImpl::Avx2
                                       : SipImpl::Portable);
    if (!siphashAvx2Available())
        GTEST_SKIP() << "no AVX2 on this CPU: only the portable backend";
}

/** Lane @p lane of @p msgs serialized: the bytes siphash24x4 hashes. */
std::vector<std::uint8_t>
serialized(const SipLines4 &msgs, unsigned lane)
{
    std::vector<std::uint8_t> bytes(sipLineBytes);
    std::memcpy(bytes.data(), &msgs.line[lane], 8);
    std::memcpy(bytes.data() + 8, &msgs.counter[lane], 8);
    std::memcpy(bytes.data() + 16, msgs.payload[lane], 64);
    std::uint64_t last;
    std::memcpy(&last, bytes.data() + 72, 8);
    last &= msgs.lastMask[lane];
    std::memcpy(bytes.data() + 72, &last, 8);
    return bytes;
}

TEST(SipHashBatch, EveryLaneMatchesScalar)
{
    Rng rng(0x5eed);
    for (const SipImpl impl : backends()) {
        SCOPED_TRACE(nameOf(impl));
        for (unsigned trial = 0; trial < 400; ++trial) {
            const SipKey key = randomKey(rng);
            // Distinct lanes; masks that keep, clear or cut the last
            // payload word.
            CachelineData payloads[4];
            SipLines4 msgs;
            for (unsigned lane = 0; lane < 4; ++lane) {
                payloads[lane] = randomLine(rng);
                msgs.line[lane] = rng.next();
                msgs.counter[lane] = rng.next();
                msgs.payload[lane] = payloads[lane].data();
                const std::uint64_t pick = rng.below(3);
                msgs.lastMask[lane] = pick == 0   ? ~0ull
                                      : pick == 1 ? 0
                                                  : rng.next();
            }
            std::uint64_t out[4];
            siphash24x4(msgs, key, out, impl);
            for (unsigned lane = 0; lane < 4; ++lane)
                ASSERT_EQ(out[lane],
                          siphash24(serialized(msgs, lane).data(),
                                    sipLineBytes, key))
                    << "trial " << trial << " lane " << lane;
        }
    }
}

TEST(SipHashBatch, FourEqualLanes)
{
    // The 80-byte message 00..4f under key 00..0f, in all four lanes
    // at once: every lane equals the scalar reference (itself pinned
    // to the published vectors in test_siphash.cc).
    SipKey key;
    for (unsigned i = 0; i < 16; ++i)
        key[i] = std::uint8_t(i);
    std::uint8_t bytes[sipLineBytes];
    for (unsigned i = 0; i < sipLineBytes; ++i)
        bytes[i] = std::uint8_t(i);
    SipLines4 msgs;
    for (unsigned lane = 0; lane < 4; ++lane) {
        std::memcpy(&msgs.line[lane], bytes, 8);
        std::memcpy(&msgs.counter[lane], bytes + 8, 8);
        msgs.payload[lane] = bytes + 16;
        msgs.lastMask[lane] = ~0ull;
    }
    const std::uint64_t expect = siphash24(bytes, sizeof(bytes), key);
    for (const SipImpl impl : backends()) {
        std::uint64_t out[4];
        siphash24x4(msgs, key, out, impl);
        for (unsigned lane = 0; lane < 4; ++lane)
            EXPECT_EQ(out[lane], expect) << nameOf(impl) << " lane " << lane;
    }
}

/** The tags of @p msgs, through one MacPacker on @p impl. */
std::vector<std::uint64_t>
packAll(const MacEngine &engine, const std::vector<MacMessage> &msgs,
        SipImpl impl = siphashDispatched())
{
    std::vector<std::uint64_t> tags(msgs.size());
    MacPacker packer(engine, impl);
    for (std::size_t i = 0; i < msgs.size(); ++i)
        packer.data(msgs[i], tags[i]);
    packer.finish();
    return tags;
}

TEST(MacBatch, MatchesScalarComputeWithTruncation)
{
    // The packer runs on the dispatched backend; compute() is the
    // scalar reference.
    Rng rng(0xba7c4);
    for (unsigned trial = 0; trial < 100; ++trial) {
        const MacEngine engine(randomKey(rng));
        // 1..11 messages: full batches plus every partial one.
        const std::size_t n = 1 + trial % 11;
        std::vector<CachelineData> payloads(n);
        std::vector<MacMessage> msgs(n);
        for (std::size_t i = 0; i < n; ++i) {
            payloads[i] = randomLine(rng);
            const unsigned bits =
                i % 3 == 0 ? 54 : (i % 3 == 1 ? 64 : 1 + rng.below(64));
            msgs[i] = {rng.next(), rng.next() >> 8, &payloads[i], bits};
        }
        const std::vector<std::uint64_t> tags = packAll(engine, msgs);
        for (std::size_t i = 0; i < n; ++i)
            ASSERT_EQ(tags[i],
                      engine.compute(msgs[i].line, msgs[i].counter,
                                     payloads[i], msgs[i].tagBits))
                << "message " << i << " of " << n;
    }
}

class MacBatchBackend : public ::testing::TestWithParam<SipImpl>
{
  protected:
    void
    SetUp() override
    {
        const SipImpl impl = GetParam();
        if ((impl == SipImpl::Avx2 && !siphashAvx2Available()) ||
            (impl == SipImpl::Avx512 && !siphashAvx512Available()))
            GTEST_SKIP() << "no " << nameOf(impl) << " on this CPU";
    }
};

TEST_P(MacBatchBackend, InPlaceLanesMatchScalarCompute)
{
    // 1..9 messages (every lane count of a partial pass, one and two
    // full passes), entry lanes (MAC word read as zero) mixed with data
    // lanes, tag widths 1, 54 and 64. The reference zeroes the MAC word
    // of its own copy; the batch must leave every payload as it was.
    Rng rng(0x1a7e + unsigned(GetParam()));
    constexpr unsigned widths[] = {1, 54, 64};
    for (unsigned trial = 0; trial < 300; ++trial) {
        const MacEngine engine(randomKey(rng));
        const std::size_t n = 1 + trial % 9;
        std::vector<CachelineData> payloads(n);
        std::vector<MacMessage> msgs(n);
        for (std::size_t i = 0; i < n; ++i) {
            payloads[i] = randomLine(rng);
            msgs[i] = {rng.next(), rng.next(), &payloads[i],
                       widths[rng.below(3)], rng.below(2) == 0};
        }
        const std::vector<CachelineData> before = payloads;
        const std::vector<std::uint64_t> tags =
            packAll(engine, msgs, GetParam());
        EXPECT_EQ(payloads, before);
        for (std::size_t i = 0; i < n; ++i) {
            CachelineData payload = payloads[i];
            if (msgs[i].zeroMacWord)
                CounterFormat::setMac(payload, 0);
            ASSERT_EQ(tags[i], engine.compute(msgs[i].line, msgs[i].counter,
                                              payload, msgs[i].tagBits))
                << "message " << i << " of " << n << ", entry lane "
                << msgs[i].zeroMacWord << ", " << msgs[i].tagBits
                << " bits";
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Backends, MacBatchBackend,
    ::testing::Values(SipImpl::Portable, SipImpl::Avx2, SipImpl::Avx512),
    [](const ::testing::TestParamInfo<SipImpl> &info) {
        return std::string(nameOf(info.param));
    });

/** Every stored entry MAC of @p tree, recomputed one at a time. */
void
expectScalarEntryMacs(IntegrityTree &tree, const SipKey &key)
{
    const MacEngine scalar(key);
    CounterTreeState &state = tree.state();
    const TreeGeometry &geom = tree.geometry();
    for (unsigned level = 0; level < geom.rootLevel(); ++level) {
        for (const auto &e : state.images(level)) {
            const CounterTreeState::Location parent =
                state.locate(level + 1, e.key);
            const CachelineData *above =
                state.find(level + 1, parent.index);
            ASSERT_NE(above, nullptr) << "level " << level;
            CachelineData payload = e.value;
            CounterFormat::setMac(payload, 0);
            ASSERT_EQ(CounterFormat::mac(e.value),
                      scalar.compute(geom.lineOfEntry(level, e.key),
                                     state.format(level + 1).read(
                                         *above, parent.slot),
                                     payload))
                << "level " << level << " entry " << e.key;
        }
    }
}

struct TreeCase
{
    const char *name;
    TreeConfig config;
    std::uint64_t memBytes;
};

void
PrintTo(const TreeCase &c, std::ostream *os)
{
    *os << c.name;
}

class BatchedTree : public ::testing::TestWithParam<TreeCase>
{
};

TEST_P(BatchedTree, StoredMacsMatchScalarAfterOverflows)
{
    // Half the writes hit 16 hot lines of one level-0 entry, a
    // quarter 512 warm lines, the rest anywhere: counters overflow at
    // level 0 and, under the parents the hot lines share, above it.
    constexpr unsigned writes = 20000;
    Rng rng(0x7eee);
    const SipKey key = randomKey(rng);
    IntegrityTree tree(GetParam().memBytes, GetParam().config, key);
    const std::uint64_t data_lines = tree.geometry().dataLines();
    std::uint64_t reencrypted = 0, tree_overflows = 0;
    for (unsigned i = 0; i < writes; ++i) {
        const std::uint64_t pick = rng.below(4);
        const LineAddr line =
            pick < 2    ? rng.below(16)
            : pick == 2 ? rng.below(std::min<std::uint64_t>(512, data_lines))
                        : rng.below(data_lines);
        const IntegrityTree::BumpResult bump = tree.bumpCounter(line);
        reencrypted += bump.reencrypt.size();
        tree_overflows += bump.treeOverflows;
        if (i % 997 == 0) {
            ASSERT_TRUE(tree.verify(line)) << "write " << i;
        }
    }
    RecordProperty("level0_overflows", int(tree.overflowEvents(0)));
    RecordProperty("tree_overflows", int(tree_overflows));
    EXPECT_GT(tree.overflowEvents(0), 0u);
    EXPECT_GT(reencrypted, 0u);
    if (tree.geometry().rootLevel() > 0) {
        EXPECT_GT(tree_overflows, 0u);
    }
    EXPECT_TRUE(tree.verifyAll());
    expectScalarEntryMacs(tree, key);
}

TEST_P(BatchedTree, ReadAndWriteDataMacsMatchScalar)
{
    // The data MAC rides in the tree's batch on every read and write.
    SecureMemoryConfig config;
    config.memBytes = GetParam().memBytes;
    config.tree = GetParam().config;
    Rng rng(0xda7a);
    config.macKey = randomKey(rng);
    SecureMemory mem(config);
    const MacEngine scalar(config.macKey);
    const std::uint64_t lines =
        std::min<std::uint64_t>(300, mem.geometry().dataLines());
    std::vector<CachelineData> shadow(lines);
    for (unsigned i = 0; i < 6000; ++i) {
        const LineAddr line = rng.below(lines);
        if (rng.below(2) == 0) {
            shadow[line] = randomLine(rng);
            mem.writeLine(line, shadow[line]);
            ASSERT_EQ(mem.macOf(line),
                      scalar.compute(line, mem.counterOf(line),
                                     mem.ciphertextOf(line),
                                     config.macBits))
                << "write " << i;
        } else {
            SecureMemory::Verdict verdict;
            ASSERT_EQ(mem.readLine(line, verdict), shadow[line])
                << "op " << i;
            ASSERT_EQ(verdict, SecureMemory::Verdict::Ok);
        }
    }
    EXPECT_TRUE(mem.tree().verifyAll());
    expectScalarEntryMacs(mem.tree(), config.macKey);
}

TEST_P(BatchedTree, DataLaneMatchesScalarWithAndWithoutEntryLanes)
{
    // A data lane rides in verify() and in a bump's last pass with as
    // many entry lanes as the path has: none (the level-0 entry is the
    // root), one, three, or more than one pass.
    Rng rng(0xd47a);
    const SipKey key = randomKey(rng);
    IntegrityTree tree(GetParam().memBytes, GetParam().config, key);
    const MacEngine scalar(key);
    const std::uint64_t lines =
        std::min<std::uint64_t>(256, tree.geometry().dataLines());
    constexpr unsigned widths[] = {1, 54, 64};
    for (unsigned i = 0; i < 3000; ++i) {
        SCOPED_TRACE(i);
        const LineAddr line = rng.below(lines);
        const CachelineData payload = randomLine(rng);
        IntegrityTree::DataLane lane{&payload, widths[rng.below(3)]};
        switch (i % 4) {
        case 0:
            tree.bumpCounter(line);
            ASSERT_TRUE(tree.verify(line));
            break;
        case 1:
            tree.beginBump(line);
            tree.finishBump(&lane);
            break;
        default:
            ASSERT_TRUE(tree.verify(line, &lane));
            break;
        }
        if (i % 4 != 0) {
            ASSERT_EQ(lane.counter, tree.counterOf(line));
            ASSERT_EQ(lane.tag, scalar.compute(line, lane.counter, payload,
                                               lane.tagBits));
        }
    }
    EXPECT_TRUE(tree.verifyAll());
    expectScalarEntryMacs(tree, key);
}

TEST_P(BatchedTree, FirstReadOfUnwrittenLineIsZeros)
{
    // A line never written reads as zeros under the counter on its
    // path, with its data MAC in the tree's passes; it is stored only
    // once that counter verified.
    SecureMemoryConfig config;
    config.memBytes = GetParam().memBytes;
    config.tree = GetParam().config;
    SecureMemory mem(config);
    const MacEngine scalar(config.macKey);
    const TreeGeometry &geom = mem.geometry();
    const auto expectZeros = [&](LineAddr line) {
        SecureMemory::Verdict verdict;
        EXPECT_EQ(mem.readLine(line, verdict), CachelineData{});
        EXPECT_EQ(verdict, SecureMemory::Verdict::Ok);
        EXPECT_EQ(mem.macOf(line),
                  scalar.compute(line, mem.counterOf(line),
                                 mem.ciphertextOf(line), config.macBits));
    };

    // Lines 0..2 share a level-0 entry. Overflow it through line 0 (if
    // the format does within 4096 writes), so that line 1's first
    // counter is not 0.
    CachelineData data{};
    data[0] = 1;
    for (unsigned i = 0; i < 4096 && mem.stats().counterOverflows == 0; ++i)
        mem.writeLine(0, data);
    if (mem.stats().counterOverflows > 0) {
        EXPECT_GT(mem.counterOf(1), 0u);
    }
    expectZeros(1);
    expectZeros(geom.dataLines() - 1);

    if (geom.rootLevel() == 0)
        return; // the level-0 entry is the on-chip root
    // Tamper with line 2's level-0 entry before its first read: a
    // forged MAC, and a rolled counter that would encrypt its zeros
    // under another pad.
    constexpr LineAddr line = 2;
    const std::uint64_t index = geom.parentIndex(0, line);
    const CachelineData good = mem.tree().rawEntry(0, index);
    CachelineData forged = good;
    CounterFormat::setMac(forged, CounterFormat::mac(good) ^ 1);
    CachelineData rolled = good;
    rolled[0] ^= 1;
    for (const CachelineData &bad : {forged, rolled}) {
        mem.tree().injectEntry(0, index, bad);
        SecureMemory::Verdict verdict;
        EXPECT_FALSE(mem.readLine(line, verdict).has_value());
        EXPECT_EQ(verdict, SecureMemory::Verdict::TreeMacMismatch);
    }
    mem.tree().injectEntry(0, index, good);
    expectZeros(line);
}

TEST_P(BatchedTree, TamperAtEveryLevelIsCaught)
{
    SecureMemoryConfig config;
    config.memBytes = GetParam().memBytes;
    config.tree = GetParam().config;
    SecureMemory mem(config);
    const LineAddr line =
        std::min<LineAddr>(77, mem.geometry().dataLines() - 1);
    CachelineData data{};
    data[3] = 9;
    mem.writeLine(line, data);
    const TreeGeometry &geom = mem.geometry();

    // The data line itself: a flipped ciphertext bit and a forged MAC
    // fail its data MAC, whose lane shares the path's passes.
    const CachelineData ciphertext = mem.ciphertextOf(line);
    const std::uint64_t mac = mem.macOf(line);
    CachelineData flipped = ciphertext;
    flipped[5] ^= 0x10;
    mem.tamperCiphertext(line, flipped);
    SecureMemory::Verdict verdict;
    EXPECT_FALSE(mem.readLine(line, verdict).has_value());
    EXPECT_EQ(verdict, SecureMemory::Verdict::DataMacMismatch);
    mem.tamperCiphertext(line, ciphertext);
    mem.tamperMac(line, mac ^ 1);
    EXPECT_FALSE(mem.readLine(line, verdict).has_value());
    EXPECT_EQ(verdict, SecureMemory::Verdict::DataMacMismatch);
    mem.tamperMac(line, mac);
    EXPECT_EQ(mem.readLine(line), data);

    std::uint64_t index = line;
    for (unsigned level = 0; level < geom.rootLevel(); ++level) {
        SCOPED_TRACE(level);
        index = geom.parentIndex(level, index);
        const CachelineData good = mem.tree().rawEntry(level, index);
        // A forged MAC and a rolled-back counter byte both fail at
        // this level, ahead of the (still valid) data MAC.
        CachelineData forged = good;
        CounterFormat::setMac(forged, CounterFormat::mac(good) ^ 1);
        CachelineData rolled = good;
        rolled[0] ^= 1;
        for (const CachelineData &bad : {forged, rolled}) {
            mem.tree().injectEntry(level, index, bad);
            SecureMemory::Verdict verdict;
            EXPECT_FALSE(mem.readLine(line, verdict).has_value());
            EXPECT_EQ(verdict, SecureMemory::Verdict::TreeMacMismatch);
        }
        mem.tree().injectEntry(level, index, good);
        EXPECT_EQ(mem.readLine(line), data);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, BatchedTree,
    ::testing::Values(
        // The level-0 entry is the root: no entry lane at all.
        TreeCase{"sc64_root0", TreeConfig::sc64(), 4 * KiB},
        // One MAC'd level: a read is a partial pass of two lanes.
        TreeCase{"sc64_root1", TreeConfig::sc64(), 130 * lineBytes},
        // Three MAC'd levels: a read is exactly one batch of four.
        TreeCase{"morph_1g", TreeConfig::morph(), GiB},
        // Split counters, which overflow at every level most often.
        TreeCase{"sc64_4m", TreeConfig::sc64(), 4 * MiB},
        // Six MAC'd levels: every read and write spans two batches.
        TreeCase{"vault_16g", TreeConfig::vault(), 16 * GiB}),
    [](const ::testing::TestParamInfo<TreeCase> &info) {
        return std::string(info.param.name);
    });

TEST(BatchedTreeGeometry, CasesSpanOneAndTwoBatches)
{
    const SipKey key{};
    EXPECT_EQ(IntegrityTree(4 * KiB, TreeConfig::sc64(), key)
                  .geometry()
                  .rootLevel(),
              0u);
    EXPECT_EQ(IntegrityTree(130 * lineBytes, TreeConfig::sc64(), key)
                  .geometry()
                  .rootLevel(),
              1u);
    EXPECT_EQ(IntegrityTree(GiB, TreeConfig::morph(), key)
                  .geometry()
                  .rootLevel(),
              3u);
    EXPECT_GT(IntegrityTree(16 * GiB, TreeConfig::vault(), key)
                  .geometry()
                  .rootLevel(),
              4u);
}

} // namespace
} // namespace morph
