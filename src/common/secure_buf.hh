/**
 * @file
 * Hardened storage for secret material: wipe-on-free buffers, a
 * best-effort mlock'ed heap buffer, and constant-time comparison.
 *
 * Counter-mode security (docs/SECURITY.md) rests on keys and pads
 * never leaking. Three mechanical leaks this layer closes:
 *
 *  - secrets surviving in freed memory (swap, core dumps, reuse):
 *    SecureBuf / SecretArray guarantee their contents are zeroed
 *    before the storage is released, through a wipe the optimizer
 *    cannot elide;
 *  - secrets paged to disk: SecureBuf mlock()s its pages best-effort
 *    (allocation still succeeds where mlock is unavailable or the
 *    RLIMIT_MEMLOCK budget is exhausted — check locked());
 *  - data-dependent comparison time: ctCompare/ctEqual/ctEqual64
 *    touch every byte regardless of where the operands differ, so a
 *    MAC forger learns nothing from response latency.
 *
 * The morphflow analyzer (tools/morphflow.cc) treats SecureBuf and
 * SecretArray as self-wiping types: MORPH_SECRET members of these
 * types need no explicit wipe call.
 */

#ifndef MORPH_COMMON_SECURE_BUF_HH
#define MORPH_COMMON_SECURE_BUF_HH

#include <array>
#include <cstddef>
#include <cstdint>

namespace morph
{

/**
 * Zero @p n bytes at @p p with memset plus a compiler barrier, so the
 * store survives dead-store elimination even when the buffer is about
 * to go out of scope.
 */
void secureWipe(void *p, std::size_t n);

/**
 * Constant-time comparison of @p n bytes.
 *
 * @return 0 if the regions are equal, nonzero otherwise; the running
 *         time depends only on @p n, never on the contents.
 */
int ctCompare(const void *a, const void *b, std::size_t n);

/** Constant-time equality of @p n bytes (ctCompare == 0). */
bool ctEqual(const void *a, const void *b, std::size_t n);

/** Constant-time equality of two 64-bit words (branch-free fold). */
bool ctEqual64(std::uint64_t a, std::uint64_t b);

/**
 * Heap buffer for secret material: best-effort mlock on allocation,
 * guaranteed wipe before free. Move-only — copying secrets should be
 * a deliberate act, not an accident of pass-by-value.
 */
class SecureBuf
{
  public:
    SecureBuf() = default;

    /**
     * Allocate @p len bytes, zero-initialized.
     *
     * @param len      buffer size; 0 yields an empty buffer
     * @param try_lock attempt to mlock the pages (best-effort; the
     *                 allocation succeeds either way — see locked())
     */
    explicit SecureBuf(std::size_t len, bool try_lock = true);

    ~SecureBuf();

    SecureBuf(SecureBuf &&other) noexcept;
    SecureBuf &operator=(SecureBuf &&other) noexcept;
    SecureBuf(const SecureBuf &) = delete;
    SecureBuf &operator=(const SecureBuf &) = delete;

    std::uint8_t *data() { return data_; }
    const std::uint8_t *data() const { return data_; }
    std::size_t size() const { return len_; }
    bool empty() const { return len_ == 0; }

    /** Whether the pages are mlock'ed (false after mlock fallback). */
    bool locked() const { return locked_; }

    /** Zero the contents now (also happens on destruction). */
    void wipe();

  private:
    void release();

    std::uint8_t *data_ = nullptr;
    std::size_t len_ = 0;
    bool locked_ = false;
};

/**
 * Fixed-size secret container: a std::array that wipes itself on
 * destruction. Drop-in storage for key schedules and round keys —
 * raw() exposes the underlying array for APIs keyed on std::array.
 */
template <typename T, std::size_t N>
class SecretArray
{
  public:
    SecretArray() : v_{} {}
    explicit SecretArray(const std::array<T, N> &v) : v_(v) {}

    SecretArray(const SecretArray &) = default;
    SecretArray &operator=(const SecretArray &) = default;

    ~SecretArray() { secureWipe(v_.data(), sizeof(T) * N); }

    T *data() { return v_.data(); }
    const T *data() const { return v_.data(); }
    T &operator[](std::size_t i) { return v_[i]; }
    const T &operator[](std::size_t i) const { return v_[i]; }
    static constexpr std::size_t size() { return N; }

    /** The underlying array (for std::array-keyed interfaces). */
    const std::array<T, N> &raw() const { return v_; }

  private:
    std::array<T, N> v_;
};

} // namespace morph

#endif // MORPH_COMMON_SECURE_BUF_HH
