/**
 * @file
 * Runtime contract macros for library invariants.
 *
 * The counter codecs are dense bit-twiddling code where a silent
 * off-by-one corrupts integrity-tree state long before any test
 * notices. These macros replace bare assert():
 *
 *  - MORPH_CHECK(expr)            — always on, release builds included.
 *  - MORPH_CHECK_EQ/LT/LE(a, b)   — comparison checks that print both
 *                                   operand values on failure.
 *  - MORPH_DCHECK(expr)           — debug-only (hot paths); compiles to
 *                                   nothing when NDEBUG is defined
 *                                   unless MORPH_ENABLE_DCHECKS forces
 *                                   them on.
 *  - MORPH_CHECK_CONTEXT(line)    — RAII registration of an in-scope
 *                                   CachelineData; every registered
 *                                   line is hex-dumped when a check in
 *                                   the dynamic scope fails.
 *
 * A failing check prints the expression text, operand values (decimal
 * and hex), file:line, and the hex dump of every registered cacheline,
 * then aborts — the same post-mortem a hardware assertion would give a
 * verification engineer.
 */

#ifndef MORPH_COMMON_CHECK_HH
#define MORPH_COMMON_CHECK_HH

#include <cstdint>
#include <sstream>
#include <string>
#include <type_traits>

#include "common/types.hh"

namespace morph
{
namespace check_detail
{

class LineContext;

/** Innermost registered cacheline context for the current thread. */
inline thread_local LineContext *topContext = nullptr;

/**
 * One entry in the thread-local stack of cacheline images to dump when
 * a check fails. Instantiate via MORPH_CHECK_CONTEXT, never directly.
 * Registration is two inline thread-local stores: it sits on the ZCC
 * insert, which runs on most streaming writes.
 */
class LineContext
{
  public:
    LineContext(const char *label, const CachelineData &line)
        : label_(label), line_(&line), prev_(topContext)
    {
        topContext = this;
    }
    ~LineContext() { topContext = prev_; }
    LineContext(const LineContext &) = delete;
    LineContext &operator=(const LineContext &) = delete;

    const char *label() const { return label_; }
    const CachelineData &line() const { return *line_; }
    const LineContext *previous() const { return prev_; }

  private:
    const char *label_;
    const CachelineData *line_;
    LineContext *prev_;
};

/** Render a 64-byte line as four rows of 16 hex bytes. */
std::string hexDump(const CachelineData &line);

/** Print the failure report (plus registered line dumps) and abort. */
[[noreturn]] void failCheck(const char *file, int line, const char *expr,
                            const std::string &detail);

/** Format one operand value; integrals print as decimal and hex. */
template <typename T>
std::string
operandString(const T &value)
{
    std::ostringstream os;
    if constexpr (std::is_integral_v<T>) {
        // Unary plus promotes char-sized integers to printable ints.
        os << +value << " (0x" << std::hex << +value << ")";
    } else if constexpr (std::is_enum_v<T>) {
        os << static_cast<long long>(value);
    } else {
        os << value;
    }
    return os.str();
}

/** Build the "lhs = ..., rhs = ..." detail line for binary checks. */
template <typename A, typename B>
std::string
binopDetail(const char *a_text, const char *b_text, const A &a,
            const B &b)
{
    std::ostringstream os;
    os << "  lhs (" << a_text << ") = " << operandString(a) << "\n"
       << "  rhs (" << b_text << ") = " << operandString(b);
    return os.str();
}

} // namespace check_detail
} // namespace morph

/** Always-on invariant check. */
#define MORPH_CHECK(expr)                                                  \
    ((expr) ? static_cast<void>(0)                                         \
            : ::morph::check_detail::failCheck(__FILE__, __LINE__, #expr,  \
                                               std::string()))

#define MORPH_CHECK_BINOP_(a, b, op, opstr)                                \
    do {                                                                   \
        const auto &morph_chk_a_ = (a);                                    \
        const auto &morph_chk_b_ = (b);                                    \
        if (!(morph_chk_a_ op morph_chk_b_))                               \
            ::morph::check_detail::failCheck(                              \
                __FILE__, __LINE__, #a " " opstr " " #b,                   \
                ::morph::check_detail::binopDetail(#a, #b, morph_chk_a_,   \
                                                   morph_chk_b_));         \
    } while (false)

/** Always-on comparison checks that report both operand values. */
#define MORPH_CHECK_EQ(a, b) MORPH_CHECK_BINOP_(a, b, ==, "==")
#define MORPH_CHECK_LT(a, b) MORPH_CHECK_BINOP_(a, b, <, "<")
#define MORPH_CHECK_LE(a, b) MORPH_CHECK_BINOP_(a, b, <=, "<=")

#if !defined(NDEBUG) || defined(MORPH_ENABLE_DCHECKS)
#define MORPH_DCHECK_IS_ON 1
#else
#define MORPH_DCHECK_IS_ON 0
#endif

/** Debug-only check for hot paths (bit-field access, RNG draws). */
#if MORPH_DCHECK_IS_ON
#define MORPH_DCHECK(expr) MORPH_CHECK(expr)
#else
#define MORPH_DCHECK(expr)                                                 \
    do {                                                                   \
        if (false)                                                         \
            static_cast<void>(expr);                                       \
    } while (false)
#endif

#define MORPH_CHECK_CONCAT2_(a, b) a##b
#define MORPH_CHECK_CONCAT_(a, b) MORPH_CHECK_CONCAT2_(a, b)

/**
 * Register @p line_expr (a CachelineData lvalue) for hex dumping if any
 * MORPH_CHECK in the enclosing dynamic scope fails.
 */
#define MORPH_CHECK_CONTEXT(line_expr)                                     \
    ::morph::check_detail::LineContext MORPH_CHECK_CONCAT_(                \
        morph_line_ctx_, __LINE__)                                         \
    {                                                                      \
        #line_expr, (line_expr)                                            \
    }

/**
 * Debug-only variant of MORPH_CHECK_CONTEXT for hot paths where the
 * RAII registration (two thread-local list updates per call) is
 * measurable. The checks themselves stay on in release; only the
 * failure-time hex dump is debug-only.
 */
#if MORPH_DCHECK_IS_ON
#define MORPH_DCHECK_CONTEXT(line_expr) MORPH_CHECK_CONTEXT(line_expr)
#else
#define MORPH_DCHECK_CONTEXT(line_expr) static_cast<void>(0)
#endif

#endif // MORPH_COMMON_CHECK_HH
