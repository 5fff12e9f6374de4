/**
 * @file
 * Crash injector: cut a persistent-memory run at an arbitrary access
 * index and replay recovery from the durable state.
 *
 * The injector streams a workload trace straight through a
 * SecureMemoryModel with the persist domain enabled — no DRAM timing,
 * no warm-up — and "crashes" after exactly `cut` data accesses:
 * everything volatile (metadata cache, on-chip counters, the persist
 * domain's pending set as pending) is lost, and recovery is replayed
 * from what had reached NVM. The resulting CrashReport is pure data,
 * so a run_pool sweep over cut points and seeds is deterministic at
 * any --jobs count (pinned by durableFingerprint).
 *
 * morphverify's --recovery invariant sweeps this over strict and lazy
 * policies: every reachable post-crash durable state must reconstruct
 * a tree whose re-derived root digest matches the persisted root.
 */

#ifndef MORPH_SIM_CRASH_INJECTOR_HH
#define MORPH_SIM_CRASH_INJECTOR_HH

#include <cstdint>

#include "sim/run_config.hh"

namespace morph
{

/** Durable state and recovery outcome at the cut point. */
struct CrashReport
{
    std::uint64_t cutAccesses = 0;
    PersistStats persist;     ///< persist traffic up to the cut
    RecoveryReport recovery;  ///< replayed post-crash recovery
    std::uint64_t fingerprint = 0; ///< durable-state determinism pin
};

/**
 * Run @p config's workload (one core, its seed and footprint scale)
 * through a fresh model of @p config.secmem and crash it after @p cut
 * data accesses. The warm-up, accesses and timing settings are not
 * used. Fatal if the workload is a mix or unknown, or the persist
 * domain is disabled.
 */
CrashReport injectCrash(const RunConfig &config, std::uint64_t cut);

} // namespace morph

#endif // MORPH_SIM_CRASH_INJECTOR_HH
