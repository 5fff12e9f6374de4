/**
 * @file
 * Shared hot-path kernel definitions for the throughput gate.
 *
 * Each kernel wraps one optimized primitive (word-level bitfield
 * access, ZCC decode/encode, AES/OTP/SipHash) in a deterministic,
 * self-contained loop. The same definitions back two harnesses:
 *
 *   - tools/morphbench --kernels emits ops-per-second per kernel into
 *     the benchmark JSON, and --compare gates them one-directionally
 *     (slower than min_ratio x baseline fails; faster never does).
 *   - benchmark/morphperf times them for the counters.* and crypto.*
 *     per-layer metrics of the host-throughput benchmark.
 *
 * Every kernel executes a fixed `batch` of operations per run() call
 * so the std::function indirection is amortized to noise; ops-per-sec
 * is batch * calls / elapsed. Kernel state is seeded deterministically
 * — only the wall-clock rates are nondeterministic, which is why
 * --kernels is opt-in and excluded from the byte-identity contract
 * (docs/PERFORMANCE.md).
 */

#ifndef MORPH_BENCH_KERNELS_HH
#define MORPH_BENCH_KERNELS_HH

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/bitfield.hh"
#include "counters/counter_factory.hh"
#include "counters/zcc_codec.hh"
#include "crypto/mac.hh"
#include "crypto/otp.hh"

namespace morph
{
namespace kernels
{

/** One measurable kernel: run() performs `batch` operations. */
struct Kernel {
    std::string name;
    std::uint64_t batch;
    /** Executes `batch` ops; returns a value-dependent sink. */
    std::function<std::uint64_t()> run;
};

/**
 * Build the kernel list. Construction is deterministic (fixed seeds,
 * fixed populations); each kernel owns its state via shared_ptr so the
 * list is copyable.
 */
inline std::vector<Kernel>
makeKernels()
{
    std::vector<Kernel> out;

    // Pseudorandom offset/width schedule over a fixed line image:
    // exercises aligned, unaligned and word-straddling fields.
    {
        struct St {
            CachelineData line;
            std::uint64_t x = 0x9e3779b97f4a7c15ull;
        };
        auto st = std::make_shared<St>();
        for (unsigned i = 0; i < lineBytes; ++i)
            st->line[i] = std::uint8_t(i * 37);
        out.push_back({"bitfield_read", 256, [st] {
                           std::uint64_t sink = 0;
                           for (unsigned i = 0; i < 256; ++i) {
                               auto &x = st->x;
                               x ^= x << 13;
                               x ^= x >> 7;
                               x ^= x << 17;
                               const unsigned width =
                                   1 + unsigned(x & 63);
                               unsigned offset =
                                   unsigned((x >> 8) & (lineBits - 1));
                               if (offset + width > lineBits)
                                   offset = lineBits - width;
                               sink += readBits(st->line, offset, width);
                           }
                           return sink;
                       }});
    }
    {
        struct St {
            CachelineData line{};
            std::uint64_t x = 0x9e3779b97f4a7c15ull;
        };
        auto st = std::make_shared<St>();
        out.push_back({"bitfield_write", 256, [st] {
                           std::uint64_t sink = 0;
                           for (unsigned i = 0; i < 256; ++i) {
                               auto &x = st->x;
                               x ^= x << 13;
                               x ^= x >> 7;
                               x ^= x << 17;
                               const unsigned width =
                                   1 + unsigned(x & 63);
                               unsigned offset =
                                   unsigned((x >> 8) & (lineBits - 1));
                               if (offset + width > lineBits)
                                   offset = lineBits - width;
                               const std::uint64_t v =
                                   width == 64
                                       ? x
                                       : x & ((1ull << width) - 1);
                               writeBits(st->line, offset, width, v);
                               sink += v;
                           }
                           return sink;
                       }});
    }
    // Popcount over the ZCC bit-vector span at every prefix length.
    {
        struct St {
            CachelineData line;
            unsigned idx = 0;
        };
        auto st = std::make_shared<St>();
        for (unsigned i = 0; i < lineBytes; ++i)
            st->line[i] = std::uint8_t(i * 37);
        out.push_back({"bitfield_popcount", 256, [st] {
                           std::uint64_t sink = 0;
                           for (unsigned i = 0; i < 256; ++i) {
                               st->idx = (st->idx + 1) & 127;
                               sink += popcountBits(st->line, 64,
                                                    st->idx + 1);
                           }
                           return sink;
                       }});
    }
    // Full-line ZCC decode (the verification/re-encode unit of work):
    // one op = all 128 minors of a 40-populated line.
    {
        auto line = std::make_shared<CachelineData>();
        zcc::init(*line, 7);
        for (unsigned i = 0; i < 40; ++i)
            zcc::insertNonZero(*line, (i * 3) % 128);
        out.push_back({"zcc_decode", 64, [line] {
                           std::uint64_t sink = 0;
                           for (unsigned rep = 0; rep < 64; ++rep) {
                               std::uint64_t minors[zcc::numCounters];
                               zcc::decodeAll(*line, minors);
                               sink += minors[(rep * 3) % 128] +
                                       minors[127];
                           }
                           return sink;
                       }});
    }
    // ZCC encode: overwrite minors of a 40-populated line in place.
    // Loop state lives in locals — the byte stores into the line would
    // otherwise force reloads of anything reachable through the state
    // pointer every iteration. Populated indices are 3*i (3*39 < 128),
    // so the index schedule is pure arithmetic.
    {
        auto line = std::make_shared<CachelineData>();
        zcc::init(*line, 7);
        for (unsigned i = 0; i < 40; ++i)
            zcc::insertNonZero(*line, (i * 3) % 128);
        out.push_back({"zcc_encode", 256, [line] {
                           CachelineData &l = *line;
                           std::uint64_t sink = 0;
                           std::uint64_t v = 1;
                           unsigned i = 0;
                           for (unsigned rep = 0; rep < 256; ++rep) {
                               i = (i + 1) & 31;
                               v = (v & 15) + 1;
                               zcc::setMinor(l, 3 * i, v++);
                               sink += i;
                           }
                           return sink;
                       }});
    }
    // Morphable counter increment across all 128 children, including
    // ZCC->MCR morphs and rebases as counters saturate.
    {
        struct St {
            std::unique_ptr<CounterFormat> format;
            CachelineData line;
            unsigned idx = 0;
        };
        auto st = std::make_shared<St>();
        st->format = makeCounterFormat(CounterKind::Morph);
        st->format->init(st->line);
        for (unsigned i = 0; i < 128; ++i)
            st->format->increment(st->line, i);
        out.push_back({"morph_increment", 256, [st] {
                           std::uint64_t sink = 0;
                           for (unsigned rep = 0; rep < 256; ++rep) {
                               const auto r = st->format->increment(
                                   st->line, st->idx);
                               st->idx = (st->idx + 1) & 127;
                               sink += std::uint64_t(r.overflow);
                           }
                           return sink;
                       }});
    }
    // Chained single-block AES (latency-bound, exercises dispatch).
    {
        struct St {
            Aes128 aes{Aes128::Key{}};
            Aes128::Block b{};
        };
        auto st = std::make_shared<St>();
        out.push_back({"aes_encrypt", 64, [st] {
                           for (unsigned rep = 0; rep < 64; ++rep)
                               st->b = st->aes.encrypt(st->b);
                           return std::uint64_t(st->b[0]);
                       }});
    }
    // Cacheline pad generation: four AES blocks per op, batched
    // through encrypt4 (throughput-bound on AES-NI).
    {
        struct St {
            OtpEngine otp{Aes128::Key{}};
            std::uint64_t c = 0;
        };
        auto st = std::make_shared<St>();
        out.push_back({"otp_pad", 64, [st] {
                           std::uint64_t sink = 0;
                           for (unsigned rep = 0; rep < 64; ++rep) {
                               const auto p = st->otp.pad(
                                   42,
                                   (++st->c) & ((1ull << 56) - 1));
                               sink += p[0];
                           }
                           return sink;
                       }});
    }
    // 64-byte SipHash MAC with tweaked inputs.
    {
        struct St {
            MacEngine mac{SipKey{}};
            CachelineData payload{};
            std::uint64_t c = 0;
        };
        auto st = std::make_shared<St>();
        out.push_back({"siphash_mac", 64, [st] {
                           std::uint64_t sink = 0;
                           for (unsigned rep = 0; rep < 64; ++rep)
                               sink += st->mac.compute(7, ++st->c,
                                                       st->payload, 54);
                           return sink;
                       }});
    }
    return out;
}

/** Measured rate for one kernel. */
struct Rate {
    std::string name;
    double ops_per_sec = 0;
};

/**
 * Time one kernel: warm up, then run until at least @p min_seconds of
 * wall clock has elapsed. Returns operations per second.
 */
inline double
measureOpsPerSec(const Kernel &k, double min_seconds)
{
    using clock = std::chrono::steady_clock;
    std::uint64_t sink = 0;
    for (unsigned i = 0; i < 8; ++i)
        sink += k.run();
    std::uint64_t calls = 0;
    const auto t0 = clock::now();
    double elapsed = 0;
    do {
        for (unsigned i = 0; i < 16; ++i)
            sink += k.run();
        calls += 16;
        elapsed =
            std::chrono::duration<double>(clock::now() - t0).count();
    } while (elapsed < min_seconds);
    // Keep the sink alive so the optimizer cannot drop the kernel.
    asm volatile("" : : "r"(sink));
    return double(calls * k.batch) / elapsed;
}

/** Measure every kernel at @p min_seconds each. */
inline std::vector<Rate>
measureAll(double min_seconds)
{
    std::vector<Rate> rates;
    for (const auto &k : makeKernels())
        rates.push_back({k.name, measureOpsPerSec(k, min_seconds)});
    return rates;
}

} // namespace kernels
} // namespace morph

#endif // MORPH_BENCH_KERNELS_HH
