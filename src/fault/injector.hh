/**
 * @file
 * Deterministic fault injector: the runtime object behind a non-none
 * FaultPlan, owned by the Multicore and consulted from exactly three
 * hook sites — NetworkModel::traverseLink (lossy links), the
 * transport's retransmit path (protocol/messages.hh), and the
 * directory-transaction soft-error hook (protocol/controllers.cc).
 *
 * Determinism argument (docs/ARCHITECTURE.md "Fault injection &
 * recovery"): every injection decision is a *pure hash* of the fault
 * seed and the event's stable identity — (link id, head-flit time,
 * flit count) for link faults, (structure, line address, transaction
 * time) for soft errors — mapped to [0, 2^64) and compared against a
 * fixed-point rate threshold. No mutable RNG state exists, so the
 * fault schedule is a function of the simulated event stream alone:
 * identical across --sim-threads values (the sharded engine replays
 * the same events at the same timestamps) and across --jobs
 * placements (each run owns its injector). Same seed, same schedule,
 * byte-identical goldens.
 *
 * Counter threading: all three hook sites execute on serialized
 * phases only — directory transactions, transport sends, and network
 * traversals are confined to the drain thread by the sharded engine's
 * parallel-phase guard (ShardedEngine::onDirectoryRequest) — so the
 * counters are plain integers.
 */

#ifndef LACC_FAULT_INJECTOR_HH
#define LACC_FAULT_INJECTOR_HH

#include "fault/plan.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace lacc {

/** Outcome of one link-traversal fault roll. */
enum class LinkFault : std::uint8_t {
    None,
    Drop,    //!< message lost in flight; source times out
    Corrupt, //!< message arrives mangled; destination NACKs
};

/** Outcome of one soft-error roll against a protected structure. */
enum class SoftFault : std::uint8_t {
    None,
    Single, //!< one flipped bit: SECDED corrects
    Double, //!< two flipped bits: SECDED detects, cannot correct
};

/** Structure a soft error strikes (per-structure ECC coverage). */
enum class FaultUnit : std::uint8_t {
    L1Data,  //!< requester's L1 line data
    L2Data,  //!< home slice's L2 line data
    DirMeta, //!< directory metadata (L2Meta / SharerList)
};

/** Runtime fault state of one Multicore; see the file header. */
class FaultInjector
{
  public:
    explicit FaultInjector(const SystemConfig &cfg);

    const FaultPlan &plan() const { return plan_; }

    /**
     * Roll the lossy-link Bernoulli process for one traversal of
     * directed link @p link with head-flit time @p t. Pure function
     * of (seed, link, t, flits); counts injected faults.
     */
    LinkFault rollLink(std::uint32_t link, Cycle t,
                       std::uint32_t flits);

    /**
     * Roll the soft-error process for one directory-transaction touch
     * of @p line's image in @p unit at time @p t. Pure function of
     * (seed, unit, line, t); counts strikes.
     */
    SoftFault rollSoft(FaultUnit unit, LineAddr line, Cycle t);

    /**
     * Deterministic strike position for an *unprotected* structure's
     * real bit flip: a bit index in [0, bits).
     */
    std::uint32_t strikeBit(LineAddr line, Cycle t,
                            std::uint32_t bits) const;

    // ---- Recovery-event counters (bumped at the hook sites) -----------
    void noteRetransmit() { ++stats_.retransmits; }
    void noteNack() { ++stats_.nacks; }
    void noteCorrected() { ++stats_.eccCorrected; }
    void noteDetected() { ++stats_.eccDetected; }
    void noteScrub() { ++stats_.scrubs; }
    void noteSilent() { ++stats_.silentCorruptions; }

    /** Retransmit budget exhausted: throws RunAbort(FaultFatal). */
    [[noreturn]] void budgetExhausted(CoreId src, CoreId dst,
                                      std::uint32_t attempts) const;

    /** Detected-but-unrecoverable strike: throws RunAbort(FaultFatal). */
    [[noreturn]] void unrecoverable(const char *what,
                                    LineAddr line) const;

    // Whole-run by design: never reset at the warm-up boundary, or
    // the zero-silent-corruption ledger would lose warm-up strikes.
    const FaultStats &stats() const { return stats_; }

  private:
    std::uint64_t roll(std::uint64_t stream, std::uint64_t a,
                       std::uint64_t b, std::uint64_t c) const;

    FaultPlan plan_;
    std::uint64_t seed_;

    // Fixed-point probability thresholds: rate mapped onto [0, 2^64).
    std::uint64_t dropThresh_ = 0;
    std::uint64_t corruptThresh_ = 0;
    std::uint64_t softThresh_ = 0;
    std::uint64_t doubleThresh_ = 0;

    FaultStats stats_;
};

} // namespace lacc

#endif // LACC_FAULT_INJECTOR_HH
