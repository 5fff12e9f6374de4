#include "common/secure_buf.hh"

#include <cstdlib>
#include <cstring>
#include <new>

#include "common/annotations.hh"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/mman.h>
#define MORPH_HAVE_MLOCK 1
#endif

namespace morph
{

void
secureWipe(void *p, std::size_t n)
{
    if (p == nullptr || n == 0)
        return;
    // A word-wide memset; the barrier takes the buffer's address and
    // clobbers memory, so the compiler must assume the zeroes are read
    // and cannot discard the stores even for a buffer about to die.
    std::memset(p, 0, n);
#if defined(__GNUC__) || defined(__clang__)
    __asm__ __volatile__("" : : "r"(p) : "memory");
#endif
}

int
ctCompare(const void *a, const void *b, std::size_t n)
{
    const auto *pa = static_cast<const std::uint8_t *>(a);
    const auto *pb = static_cast<const std::uint8_t *>(b);
    unsigned diff = 0;
    for (std::size_t i = 0; i < n; ++i)
        diff |= unsigned(pa[i] ^ pb[i]);
    return MORPH_DECLASSIFY(int(diff));
}

bool
ctEqual(const void *a, const void *b, std::size_t n)
{
    return MORPH_DECLASSIFY(ctCompare(a, b, n) == 0);
}

bool
ctEqual64(std::uint64_t a, std::uint64_t b)
{
    // Fold the difference to a single bit without a data-dependent
    // branch; equal words leave every folded bit clear.
    std::uint64_t diff = a ^ b;
    diff |= diff >> 32;
    diff |= diff >> 16;
    diff |= diff >> 8;
    diff |= diff >> 4;
    diff |= diff >> 2;
    diff |= diff >> 1;
    return MORPH_DECLASSIFY((diff & 1) == 0);
}

SecureBuf::SecureBuf(std::size_t len, bool try_lock)
{
    if (len == 0)
        return;
    data_ = static_cast<std::uint8_t *>(std::calloc(len, 1));
    if (data_ == nullptr)
        throw std::bad_alloc();
    len_ = len;
#ifdef MORPH_HAVE_MLOCK
    if (try_lock)
        locked_ = ::mlock(data_, len_) == 0;
#else
    (void)try_lock;
#endif
}

SecureBuf::~SecureBuf() { release(); }

SecureBuf::SecureBuf(SecureBuf &&other) noexcept
    : data_(other.data_), len_(other.len_), locked_(other.locked_)
{
    other.data_ = nullptr;
    other.len_ = 0;
    other.locked_ = false;
}

SecureBuf &
SecureBuf::operator=(SecureBuf &&other) noexcept
{
    if (this != &other) {
        release();
        data_ = other.data_;
        len_ = other.len_;
        locked_ = other.locked_;
        other.data_ = nullptr;
        other.len_ = 0;
        other.locked_ = false;
    }
    return *this;
}

void
SecureBuf::wipe()
{
    secureWipe(data_, len_);
}

void
SecureBuf::release()
{
    if (data_ == nullptr)
        return;
    secureWipe(data_, len_);
#ifdef MORPH_HAVE_MLOCK
    if (locked_)
        ::munlock(data_, len_);
#endif
    std::free(data_);
    data_ = nullptr;
    len_ = 0;
    locked_ = false;
}

} // namespace morph
