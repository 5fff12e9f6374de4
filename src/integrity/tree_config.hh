/**
 * @file
 * Per-level counter-organization schedules for integrity trees.
 *
 * A Bonsai-style counter tree is fully described by the counter
 * organization of its base (the encryption counters) and of each tree
 * level above it. The paper studies:
 *
 *   SGX       : 8-ary counters everywhere (commercial baseline)
 *   VAULT     : SC-64 encryption, SC-32 at level 1, SC-16 above
 *   SC-64     : SC-64 everywhere (the paper's aggressive baseline)
 *   SC-128    : SC-128 everywhere (naive high arity; Fig 5)
 *   MorphTree : MorphCtr-128 everywhere (the proposal)
 */

#ifndef MORPH_INTEGRITY_TREE_CONFIG_HH
#define MORPH_INTEGRITY_TREE_CONFIG_HH

#include <string>
#include <vector>

#include "counters/counter_factory.hh"

namespace morph
{

/** Counter-kind schedule for encryption counters + tree levels. */
struct TreeConfig
{
    std::string name;

    /** Organization of the encryption counters (tree level 0). */
    CounterKind encryption = CounterKind::SC64;

    /**
     * Organization of tree levels 1..N; the last entry repeats for all
     * higher levels (VAULT: {SC32, SC16} -> 32-ary L1, 16-ary L2+).
     */
    std::vector<CounterKind> treeLevels{CounterKind::SC64};

    /** Counter kind at @p level (0 = encryption counters). */
    CounterKind kindAt(unsigned level) const;

    /** Arity at @p level. */
    unsigned arityAt(unsigned level) const;

    // Named configurations from the paper.
    static TreeConfig sgx();
    static TreeConfig vault();
    static TreeConfig sc64();
    static TreeConfig sc128();
    static TreeConfig morph();
    static TreeConfig morphZccOnly();

    /** SC-64 with Minor Counter Rebasing at every level — the
     *  paper's §IV-1 observation that rebasing applies to existing
     *  split-counter designs, isolated from ZCC and the 128-arity. */
    static TreeConfig sc64Rebased();

    /** Bonsai Merkle MAC-tree timing model: 8-ary levels above SC-64
     *  encryption counters. Traffic-equivalent to a tree of MACs
     *  (8 x 64-bit tags per node, no counter overflows); the
     *  functional hash tree itself is integrity/mac_tree.hh. */
    static TreeConfig bonsaiMacTree();

    bool operator==(const TreeConfig &) const = default;
};

/** A tree configuration under its command-line name. */
struct NamedTreeConfig
{
    const char *name;
    TreeConfig config;
};

/** The named configurations, in display order: sc64, vault, morph,
 *  morph-zcc, sc128, sgx, bmt. */
const std::vector<NamedTreeConfig> &namedTreeConfigs();

/** The configuration named @p name, or nullptr if there is none. */
const TreeConfig *findTreeConfig(const std::string &name);

} // namespace morph

#endif // MORPH_INTEGRITY_TREE_CONFIG_HH
