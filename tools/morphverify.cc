/**
 * @file
 * morphverify — exhaustive bounded model checking of the counter
 * formats' transition relations.
 *
 * Where tests/test_codec_fuzz.cc *samples* write sequences and
 * tests/test_formats.cc *pattern-checks* constants, morphverify walks the
 * actual state graph: breadth-first search from deterministic seed
 * states over symmetry-reduced canonical states (see
 * src/counters/transition_model.hh), taking every representative
 * bump(slot) edge from every visited state and checking, on each edge:
 *
 *   1. monotonicity   — the bumped slot's effective value strictly
 *                       increases;
 *   2. accountability — no other slot's effective value changes unless
 *                       the WriteResult reports it in the
 *                       re-encryption range (and reported slots never
 *                       move backwards); a representation change must
 *                       be flagged as formatSwitch, and a reported
 *                       rebase must leave all other slots untouched;
 *   3. canonicity     — encode(decode(state)) reproduces the image bit
 *                       for bit (modulo the MAC field), the image is
 *                       structurally well-formed, and the decoded
 *                       effective values agree with CounterFormat::read
 *                       — no two bit patterns alias one logical state;
 *   4. ZCC schedule   — the stored Ctr-Sz equals the §III width
 *                       schedule for the live population, re-derived
 *                       here from an independent bucket table.
 *
 * Within the explored bound the result is a proof: "no fuzz failure
 * yet" becomes "no reachable violation exists within N canonical
 * states of the seeds". Iteration order is deterministic (seed order,
 * FIFO frontier, ascending slots), so a reported violation is exactly
 * reproducible.
 *
 * --recovery adds the crash-consistency invariant: a sweep of crash
 * injections (src/sim/crash_injector.hh) cuts persistent-memory runs
 * at seed-derived access indexes under both the strict and the lazy
 * root-update policy, and checks that every reachable post-crash
 * durable state reconstructs a consistent tree — the re-derived root
 * digest of the recovered lines must equal the persisted root.
 *
 * Deliberately broken model variants (--broken) re-create the bug
 * classes the checker exists to catch — an off-by-one rebase, an
 * unreported reset, a stale payload encoding, a wrong width bucket,
 * and a persistence bug (unpersisted-tree-write: tree-level lines
 * skip their write-ahead obligation) — and are wired as WILL_FAIL
 * CTest cases proving the checker fires.
 *
 * --jobs N checks models in parallel on a RunPool, one model per
 * shard: each model keeps its whole BFS (visited set, frontier,
 * budget) intact, so visited/edge counts and every WILL_FAIL
 * broken-variant verdict are identical to the serial run. Violation
 * and summary text is buffered per model and flushed in command-line
 * order, byte-identical at any --jobs level.
 *
 * Exit status: 0 when every check passes, 1 on any violation, 2 on
 * usage errors.
 */

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/bitfield.hh"
#include "common/parse.hh"
#include "common/prof.hh"
#include "common/run_pool.hh"
#include "common/types.hh"
#include "counters/counter_factory.hh"
#include "counters/morph_counter.hh"
#include "counters/rebased_split_counter.hh"
#include "counters/split_counter.hh"
#include "counters/transition_model.hh"
#include "counters/zcc_codec.hh"
#include "crypto/siphash.hh"
#include "sim/crash_injector.hh"

namespace
{

using namespace morph;

// ---------------------------------------------------------------------
// Independent re-derivation of the §III ZCC width schedule. Restated
// here (not pulled from zcc::sizeForCount) so the checker and the
// codec cannot share a bug.
// ---------------------------------------------------------------------

unsigned
independentScheduleWidth(unsigned live)
{
    struct Bucket
    {
        unsigned bound;
        unsigned width;
    };
    static constexpr Bucket schedule[] = {{16, 16}, {32, 8},  {36, 7},
                                          {42, 6},  {51, 5}, {64, 4}};
    if (live == 0)
        return schedule[0].width;
    for (const Bucket &b : schedule)
        if (live <= b.bound)
            return b.width;
    return 0; // > 64 live counters is not a ZCC state at all
}

// ---------------------------------------------------------------------
// Visited set: 128-bit SipHash fingerprints of canonical keys.
// ---------------------------------------------------------------------

struct StateFingerprint
{
    std::uint64_t lo;
    std::uint64_t hi;

    bool
    operator==(const StateFingerprint &other) const
    {
        return lo == other.lo && hi == other.hi;
    }
};

struct FingerprintHash
{
    std::size_t
    operator()(const StateFingerprint &fp) const
    {
        return std::size_t(fp.lo);
    }
};

StateFingerprint
fingerprintOf(const std::string &key)
{
    static const SipKey k1 = {0x6d, 0x6f, 0x72, 0x70, 0x68, 0x76,
                              0x65, 0x72, 0x69, 0x66, 0x79, 0x2d,
                              0x6b, 0x65, 0x79, 0x31};
    static const SipKey k2 = {0x6d, 0x6f, 0x72, 0x70, 0x68, 0x76,
                              0x65, 0x72, 0x69, 0x66, 0x79, 0x2d,
                              0x6b, 0x65, 0x79, 0x32};
    return {siphash24(key.data(), key.size(), k1),
            siphash24(key.data(), key.size(), k2)};
}

// ---------------------------------------------------------------------
// Violation reporting
// ---------------------------------------------------------------------

constexpr unsigned maxPrintedViolations = 16;

std::string
hexImage(const CachelineData &line)
{
    std::string out;
    char buf[4];
    for (unsigned i = 0; i < lineBytes; ++i) {
        std::snprintf(buf, sizeof(buf), "%02x", line[i]);
        out += buf;
        if (i % 16 == 15 && i + 1 < lineBytes)
            out += '\n';
    }
    return out;
}

/**
 * Buffered output of one model's verification run. Workers fill these
 * in parallel; the driver flushes them in command-line order so the
 * report is byte-identical to a serial run.
 */
struct ModelReport
{
    std::string violations; ///< stderr text (violation details)
    std::string summary;    ///< stdout text (per-model summary line)
    int status = 0;         ///< 0 clean, 1 violations found
};

class Verifier
{
  public:
    Verifier(const TransitionModel &model, std::uint64_t budget,
             bool quiet)
        : model_(model), budget_(budget), quiet_(quiet)
    {}

    void
    violation(const CachelineData &state, int slot,
              const std::string &what)
    {
        ++violations_;
        if (violations_ > maxPrintedViolations) {
            if (violations_ == maxPrintedViolations + 1)
                err_ += "morphverify: [" + model_.name() +
                        "] further violations suppressed\n";
            return;
        }
        err_ += "morphverify: VIOLATION [" + model_.name() + "]" +
                (slot >= 0 ? " slot " + std::to_string(slot)
                           : std::string(" state 0")) +
                ": " + what + "\n";
        err_ += "  state image:\n" + hexImage(state) + "\n";
    }

    /** Checks on a state itself: canonicity + schedule. */
    void
    checkState(const CachelineData &state)
    {
        if (!model_.wellFormed(state)) {
            violation(state, -1, "image is not well-formed");
            return;
        }

        const DecodedState decoded = model_.decode(state);

        // Decoded effective values must agree with the codec's own
        // read() — the decode is an independent reading of FORMATS.md.
        for (unsigned i = 0; i < decoded.arity; ++i) {
            const std::uint64_t via_codec = model_.format().read(state, i);
            if (via_codec != decoded.effective[i]) {
                violation(state, int(i),
                          "canonicity: codec read() = " +
                              std::to_string(via_codec) +
                              " but documented-layout decode = " +
                              std::to_string(decoded.effective[i]));
                return;
            }
        }

        // encode(decode(s)) == s modulo the MAC field: no stale bits,
        // no alternative packing, no aliased representations.
        CachelineData canonical = model_.encode(decoded);
        CachelineData masked = state;
        for (unsigned bit = CounterFormat::macOffset; bit < lineBits;
             bit += 64) {
            writeBits(canonical, bit, 64, 0);
            writeBits(masked, bit, 64, 0);
        }
        if (canonical != masked) {
            violation(state, -1,
                      "canonicity: encode(decode(state)) differs from "
                      "the stored image\n  canonical image:\n" +
                          hexImage(canonical));
            return;
        }

        // ZCC width-bucket schedule (§III).
        if (decoded.rep == RepTag::Zcc) {
            unsigned live = 0;
            for (const std::uint64_t m : decoded.minors)
                live += m != 0;
            const unsigned expected = independentScheduleWidth(live);
            if (decoded.ctrSz != expected) {
                violation(state, -1,
                          "schedule: " + std::to_string(live) +
                              " live counters stored at width " +
                              std::to_string(decoded.ctrSz) +
                              ", schedule says " +
                              std::to_string(expected));
            }
        }
    }

    /** Checks on one bump edge; @p after is post-increment. */
    void
    checkEdge(const CachelineData &before, const DecodedState &dec_before,
              const CachelineData &after, unsigned slot,
              const WriteResult &result)
    {
        const DecodedState dec_after = model_.decode(after);

        // 1. Monotonicity of the written slot.
        if (dec_after.effective[slot] <= dec_before.effective[slot]) {
            violation(before, int(slot),
                      "monotonicity: effective " +
                          std::to_string(dec_before.effective[slot]) +
                          " -> " +
                          std::to_string(dec_after.effective[slot]) +
                          " did not strictly increase");
        }

        // 2. Accountability of every other slot.
        for (unsigned i = 0; i < dec_before.arity; ++i) {
            if (i == slot)
                continue;
            const bool reported = result.overflow &&
                                  i >= result.reencBegin &&
                                  i < result.reencEnd;
            if (reported) {
                if (dec_after.effective[i] < dec_before.effective[i]) {
                    violation(before, int(i),
                              "accountability: reset moved slot from " +
                                  std::to_string(dec_before.effective[i]) +
                                  " back to " +
                                  std::to_string(dec_after.effective[i]));
                }
            } else if (dec_after.effective[i] !=
                       dec_before.effective[i]) {
                violation(
                    before, int(i),
                    "accountability: bump(" + std::to_string(slot) +
                        ") changed unreported slot " + std::to_string(i) +
                        " from " +
                        std::to_string(dec_before.effective[i]) + " to " +
                        std::to_string(dec_after.effective[i]) +
                        " (reenc range [" +
                        std::to_string(result.reencBegin) + ", " +
                        std::to_string(result.reencEnd) + "))");
            }
        }

        // Representation changes must be flagged, and vice versa.
        const bool switched = dec_before.rep != dec_after.rep;
        if (switched != result.formatSwitch) {
            violation(before, int(slot),
                      switched ? "accountability: representation switch "
                                 "not reported as formatSwitch"
                               : "accountability: formatSwitch reported "
                                 "without a representation change");
        }
    }

    /** BFS over the symmetry-reduced state graph. */
    void
    run()
    {
        std::deque<CachelineData> frontier;
        for (const CachelineData &seed : model_.seedStates())
            discover(seed, frontier);

        while (!frontier.empty()) {
            const CachelineData state = frontier.front();
            frontier.pop_front();
            ++visited_;

            checkState(state);
            const DecodedState decoded = model_.decode(state);

            for (const unsigned slot :
                 model_.representativeSlots(state)) {
                CachelineData after = state;
                const WriteResult result = model_.bump(after, slot);
                ++edges_;
                checkEdge(state, decoded, after, slot, result);
                discover(after, frontier);
            }
        }

        if (!quiet_) {
            char line[256];
            std::snprintf(
                line, sizeof(line),
                "morphverify: %-8s visited=%" PRIu64 " edges=%" PRIu64
                " %s violations=%" PRIu64 "\n",
                model_.name().c_str(), visited_, edges_,
                truncated_ ? "bounded-by-budget" : "state-space-closed",
                violations_);
            out_ += line;
        }
    }

    /** Move the buffered run output into a flushable report. */
    ModelReport
    takeReport()
    {
        ModelReport report;
        report.violations = std::move(err_);
        report.summary = std::move(out_);
        report.status = violations_ == 0 ? 0 : 1;
        return report;
    }

    std::uint64_t violations() const { return violations_; }
    std::uint64_t visited() const { return visited_; }
    bool truncated() const { return truncated_; }

  private:
    /** Enqueue @p state if unseen and within budget. */
    void
    discover(const CachelineData &state,
             std::deque<CachelineData> &frontier)
    {
        const StateFingerprint fp =
            fingerprintOf(model_.canonicalKey(state));
        if (seen_.count(fp) != 0)
            return;
        if (seen_.size() >= budget_) {
            truncated_ = true;
            return;
        }
        seen_.insert(fp);
        frontier.push_back(state);
    }

    const TransitionModel &model_;
    std::uint64_t budget_;
    bool quiet_;
    std::string err_; ///< buffered violation text
    std::string out_; ///< buffered summary text
    std::unordered_set<StateFingerprint, FingerprintHash> seen_;
    std::uint64_t visited_ = 0;
    std::uint64_t edges_ = 0;
    std::uint64_t violations_ = 0;
    bool truncated_ = false;
};

// ---------------------------------------------------------------------
// Deliberately broken model variants (WILL_FAIL fixtures). Each wraps
// a real codec and injects one representative bug class; morphverify
// must catch every one of them.
// ---------------------------------------------------------------------

/** Forwards every CounterFormat call to an inner codec. */
class FormatWrapper : public CounterFormat
{
  public:
    explicit FormatWrapper(std::unique_ptr<CounterFormat> inner)
        : inner_(std::move(inner))
    {}

    unsigned arity() const override { return inner_->arity(); }
    void init(CachelineData &line) const override { inner_->init(line); }

    std::uint64_t
    read(const CachelineData &line, unsigned idx) const override
    {
        return inner_->read(line, idx);
    }

    WriteResult
    increment(CachelineData &line, unsigned idx) const override
    {
        return inner_->increment(line, idx);
    }

    unsigned
    nonZeroCount(const CachelineData &line) const override
    {
        return inner_->nonZeroCount(line);
    }

    const char *name() const override { return inner_->name(); }

  protected:
    std::unique_ptr<CounterFormat> inner_;
};

/**
 * Off-by-one rebase: after every rebase the combined base lands one
 * short, silently decrementing every effective value — the classic
 * fencepost in the rebasing arithmetic.
 */
class OffByOneRebaseFormat : public FormatWrapper
{
  public:
    OffByOneRebaseFormat()
        : FormatWrapper(
              std::make_unique<RebasedSplitCounterFormat>(64))
    {}

    WriteResult
    increment(CachelineData &line, unsigned idx) const override
    {
        const WriteResult result = inner_->increment(line, idx);
        if (result.rebase) {
            const std::uint64_t combined =
                (readBits(line, 0, 57) << 7) | readBits(line, 57, 7);
            writeBits(line, 57, 7, (combined - 1) & 127);
            writeBits(line, 0, 57, (combined - 1) >> 7);
        }
        return result;
    }
};

/**
 * Unreported reset: overflow resets happen but the WriteResult claims
 * no slot needs re-encryption — counter reuse invisible to the
 * controller.
 */
class UnreportedResetFormat : public FormatWrapper
{
  public:
    UnreportedResetFormat()
        : FormatWrapper(std::make_unique<SplitCounterFormat>(64))
    {}

    WriteResult
    increment(CachelineData &line, unsigned idx) const override
    {
        WriteResult result = inner_->increment(line, idx);
        result.overflow = false;
        result.reencBegin = result.reencEnd = 0;
        return result;
    }
};

/**
 * Stale encoding: inserts leave a junk bit in the unused tail of the
 * ZCC payload, so two bit patterns decode to one logical state.
 */
class StaleEncodingFormat : public FormatWrapper
{
  public:
    StaleEncodingFormat()
        : FormatWrapper(
              std::make_unique<MorphableCounterFormat>(false))
    {}

    WriteResult
    increment(CachelineData &line, unsigned idx) const override
    {
        const WriteResult result = inner_->increment(line, idx);
        if (zcc::isZcc(line)) {
            const unsigned used = zcc::count(line) * zcc::ctrSz(line);
            if (used < zcc::payloadBits)
                setBit(line, zcc::payloadOffset + used, true);
        }
        return result;
    }
};

/**
 * Wrong bucket: a three-counter population is stored at 8-bit width
 * instead of the schedule's 16 — the §III utility argument broken.
 */
class WrongBucketFormat : public FormatWrapper
{
  public:
    WrongBucketFormat()
        : FormatWrapper(
              std::make_unique<MorphableCounterFormat>(false))
    {}

    WriteResult
    increment(CachelineData &line, unsigned idx) const override
    {
        const WriteResult result = inner_->increment(line, idx);
        if (zcc::isZcc(line) && zcc::count(line) == 3)
            writeBits(line, 1, 6, 8);
        return result;
    }
};

std::unique_ptr<TransitionModel>
makeBrokenModel(const std::string &name)
{
    ModelSpec spec;
    spec.name = "broken:" + name;
    if (name == "rebase-off-by-one") {
        spec.flavor = ModelFlavor::RebasedSplit;
        spec.format = std::make_shared<OffByOneRebaseFormat>();
    } else if (name == "unreported-reset") {
        spec.flavor = ModelFlavor::Split;
        spec.format = std::make_shared<UnreportedResetFormat>();
    } else if (name == "stale-encoding") {
        spec.flavor = ModelFlavor::Morph;
        spec.format = std::make_shared<StaleEncodingFormat>();
    } else if (name == "wrong-bucket") {
        spec.flavor = ModelFlavor::Morph;
        spec.format = std::make_shared<WrongBucketFormat>();
    } else {
        return nullptr;
    }
    return makeTransitionModel(std::move(spec));
}

// ---------------------------------------------------------------------
// Recoverability invariant (--recovery): seed-swept crash injections
// under the strict and lazy persist policies. Every cut point is a
// reachable post-crash durable state; each must reconstruct a tree
// whose re-derived root digest equals the persisted root.
// ---------------------------------------------------------------------

struct RecoveryCase
{
    RunConfig config; ///< the policy's NVM cell under this case's seed
    bool broken;      ///< unpersisted-tree-write fixture
    std::uint64_t cut;
};

const char *
policyName(PersistPolicy policy)
{
    return policy == PersistPolicy::Strict ? "strict" : "lazy";
}

/** Seed-derived cut points: deterministic, spread over the run. Each
 *  policy's cells start from configs/morph-nvm-<policy>.ini; exits 2
 *  if that file does not load. */
std::vector<RecoveryCase>
recoveryCases(bool broken, std::uint64_t cuts,
              std::uint64_t max_accesses)
{
    std::vector<RecoveryCase> cases;
    for (const PersistPolicy policy :
         {PersistPolicy::Strict, PersistPolicy::Lazy}) {
        RunConfig config;
        IniFile ini;
        std::string error;
        if (!IniFile::fromFile(std::string(MORPH_CONFIGS_DIR) +
                                   "/morph-nvm-" + policyName(policy) +
                                   ".ini",
                               ini, error) ||
            !applyIni(config, ini, error) ||
            !resolveRunConfig(config, error)) {
            std::fprintf(stderr, "morphverify: %s\n", error.c_str());
            std::exit(2);
        }
        // A tiny metadata cache forces tree-level dirty writebacks —
        // the paths persistence bugs hide in — within a short run.
        config.secmem.metadataCacheBytes = 4 * 1024;
        config.secmem.persist.brokenSkipTreePersist = broken;
        // The broken fixture must not be masked by an epoch barrier
        // (a barrier flushes everything and re-commits the root,
        // making the durable state consistent again): push barriers
        // past run end. The clean sweep instead uses a short epoch so
        // barrier paths are reached within the cut range (mcf is ~3%
        // writes).
        config.secmem.persist.epochWrites = broken ? (1ull << 40) : 256;
        for (std::uint64_t i = 0; i < cuts; ++i) {
            const std::string key = std::string("recovery/") +
                                    (broken ? "broken/" : "") +
                                    policyName(policy) + "/" +
                                    std::to_string(i);
            RecoveryCase c{config, broken,
                           1 + sweepSeed(key, 17) % max_accesses};
            c.config.options.seed = sweepSeed(key + "/trace", 29);
            cases.push_back(std::move(c));
        }
    }
    return cases;
}

ModelReport
runRecoveryCase(const RecoveryCase &c, bool quiet)
{
    MORPH_PROF_SCOPE("verify.recovery");
    const CrashReport report = injectCrash(c.config, c.cut);

    ModelReport out;
    const std::string label =
        std::string("recovery:") + (c.broken ? "broken:" : "") +
        policyName(c.config.secmem.persist.policy);
    if (!report.recovery.consistent) {
        char line[512];
        std::snprintf(
            line, sizeof(line),
            "morphverify: VIOLATION [%s] cut=%" PRIu64 " seed=%" PRIu64
            ": recovered digest %016" PRIx64
            " != persisted root %016" PRIx64 " (durable=%" PRIu64
            " rolled_back=%" PRIu64 ")\n",
            label.c_str(), c.cut, c.config.options.seed,
            report.recovery.recoveredDigest,
            report.recovery.persistedRoot,
            report.recovery.durableEntries, report.recovery.rolledBack);
        out.violations = line;
        out.status = 1;
    }
    if (!quiet) {
        char line[512];
        std::snprintf(
            line, sizeof(line),
            "morphverify: %-16s cut=%-6" PRIu64 " persists=%-6" PRIu64
            " rolled_back=%-4" PRIu64 " lost=%-4" PRIu64
            " fp=%016" PRIx64 " %s\n",
            label.c_str(), c.cut, report.persist.linePersists,
            report.recovery.rolledBack, report.recovery.lostWrites,
            report.fingerprint,
            report.recovery.consistent ? "consistent" : "INCONSISTENT");
        out.summary = line;
    }
    return out;
}

// ---------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------

void
usage()
{
    std::printf(
        "usage: morphverify [options]\n"
        "  --format NAME   verify one format (or 'all'); names:\n"
        "                  zcc mcr sc64 sc64r morph morph-sb\n"
        "  --broken NAME   run a deliberately broken model variant\n"
        "                  (rebase-off-by-one, unreported-reset,\n"
        "                  stale-encoding, wrong-bucket,\n"
        "                  unpersisted-tree-write); must report\n"
        "                  violations, used as WILL_FAIL fixtures\n"
        "  --recovery      sweep crash injections under the strict and\n"
        "                  lazy persist policies and check that every\n"
        "                  post-crash durable state recovers to a\n"
        "                  consistent tree\n"
        "  --recovery-cuts N\n"
        "                  crash cut points per policy (default 8)\n"
        "  --recovery-accesses N\n"
        "                  cut points are drawn from [1, N] data\n"
        "                  accesses (default 20000)\n"
        "  --budget N      max canonical states per model "
        "(default 200000)\n"
        "  --jobs N        check models in parallel (default:\n"
        "                  hardware concurrency); output and exit\n"
        "                  status are independent of N\n"
        "  --quiet         suppress per-model summaries\n"
        "  --list          print model names and exit\n"
        "  --prof-out FILE write a morphprof self-profile (JSON\n"
        "                  and FILE.collapsed);\n"
        "                  MORPH_PROF=1 for a stderr summary\n"
        "Exhaustively explores the counter-format transition relation\n"
        "from deterministic seeds and checks monotonicity,\n"
        "accountability, canonical encoding, and the ZCC width\n"
        "schedule on every edge. Exits 1 on any violation.\n");
}

ModelReport
runModel(const TransitionModel &model, std::uint64_t budget, bool quiet)
{
    MORPH_PROF_SCOPE("verify.model");
    Verifier verifier(model, budget, quiet);
    verifier.run();
    return verifier.takeReport();
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> formats;
    std::vector<std::string> broken;
    std::uint64_t budget = 200000;
    unsigned jobs = 0; // 0 = RunPool::hardwareJobs()
    bool quiet = false;
    bool recovery = false;
    bool broken_recovery = false;
    std::uint64_t recovery_cuts = 8;
    std::uint64_t recovery_accesses = 20000;
    std::string prof_out;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--format" && i + 1 < argc) {
            formats.push_back(argv[++i]);
        } else if (arg == "--broken" && i + 1 < argc) {
            const std::string name = argv[++i];
            // The persistence fixture is a crash-injection sweep, not
            // a transition model: route it to the recovery machinery.
            if (name == "unpersisted-tree-write")
                broken_recovery = true;
            else
                broken.push_back(name);
        } else if (arg == "--recovery") {
            recovery = true;
        } else if (arg == "--recovery-cuts" && i + 1 < argc) {
            recovery_cuts = countOption("morphverify", arg, argv[++i], 1);
        } else if (arg == "--recovery-accesses" && i + 1 < argc) {
            recovery_accesses =
                countOption("morphverify", arg, argv[++i], 1);
        } else if (arg == "--budget" && i + 1 < argc) {
            budget = countOption("morphverify", arg, argv[++i], 1);
        } else if (arg == "--jobs" && i + 1 < argc) {
            jobs = unsigned(countOption("morphverify", arg, argv[++i], 1));
        } else if (arg == "--prof-out" && i + 1 < argc) {
            prof_out = argv[++i];
        } else if (arg == "--quiet") {
            quiet = true;
        } else if (arg == "--list") {
            for (const std::string &name : transitionModelNames())
                std::printf("%s\n", name.c_str());
            return 0;
        } else if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else {
            usage();
            return 2;
        }
    }
    if (formats.empty() && broken.empty() && !recovery &&
        !broken_recovery)
        formats = transitionModelNames();
    if (formats.size() == 1 && formats[0] == "all")
        formats = transitionModelNames();

    // Resolve every model up front so bad names exit before any work
    // starts (and never from a worker thread).
    std::vector<std::unique_ptr<TransitionModel>> models;
    for (const std::string &name : formats) {
        auto model = makeNamedTransitionModel(name);
        if (!model) {
            std::fprintf(stderr, "morphverify: unknown format '%s'\n",
                         name.c_str());
            return 2;
        }
        models.push_back(std::move(model));
    }
    for (const std::string &name : broken) {
        auto model = makeBrokenModel(name);
        if (!model) {
            std::fprintf(stderr,
                         "morphverify: unknown broken variant '%s'\n",
                         name.c_str());
            return 2;
        }
        models.push_back(std::move(model));
    }

    bool prof_stderr = false;
    profApplyEnv(prof_out, prof_stderr);
    const bool profiling = !prof_out.empty() || prof_stderr;
    if (profiling)
        profEnable();

    // Recovery sweep cases ride the same engine: one shard per crash
    // injection, results collected in case order so the report is
    // byte-identical at any --jobs level.
    std::vector<RecoveryCase> crashes;
    if (recovery) {
        const auto cases =
            recoveryCases(false, recovery_cuts, recovery_accesses);
        crashes.insert(crashes.end(), cases.begin(), cases.end());
    }
    if (broken_recovery) {
        const auto cases =
            recoveryCases(true, recovery_cuts, recovery_accesses);
        crashes.insert(crashes.end(), cases.begin(), cases.end());
    }

    // One shard per model: each keeps its whole BFS (visited set,
    // frontier, budget), so results match the serial run exactly.
    // Reports flush in command-line order below.
    std::vector<ModelReport> reports;
    {
        SweepEngine engine(jobs);
        MORPH_PROF_SCOPE("verify.sweep");
        const std::size_t n_models = models.size();
        reports = engine.map<ModelReport>(
            n_models + crashes.size(), [&](std::size_t i) {
                if (i < n_models)
                    return runModel(*models[i], budget, quiet);
                return runRecoveryCase(crashes[i - n_models], quiet);
            });
    }

    int status = 0;
    for (const ModelReport &report : reports) {
        std::fputs(report.violations.c_str(), stderr);
        std::fputs(report.summary.c_str(), stdout);
        status |= report.status;
    }

    if (profiling) {
        ProfReport profile = profReport();
        profile.meta.set("tool", "morphverify");
        if (!profExport(profile, prof_out, prof_stderr, "morphverify"))
            return 2;
    }
    return status;
}
