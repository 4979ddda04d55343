/**
 * @file
 * The protocol layer's shared vocabulary: the ProtocolContext the
 * coherence controllers (protocol/controllers.hh) work through, the
 * L1-set hint a miss carries to the directory, the outcome of an
 * invalidation receipt, and the execution engine's view of
 * cross-tile protocol effects (CoreTouchObserver).
 */

#ifndef LACC_PROTOCOL_PROTOCOL_HH
#define LACC_PROTOCOL_PROTOCOL_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "protocol/messages.hh"
#include "sim/addr_map.hh"
#include "sim/types.hh"

namespace lacc {

class DramModel;
class EnergyModel;
class FunctionalMemory;
class PageTable;
class Placement;
class Tile;
struct SystemConfig;
struct SystemStats;

/**
 * Execution-engine visibility into the protocol's cross-tile effects.
 * A directory transaction issued by one core can reach into *another*
 * core's L1 (invalidation, downgrade) — the only way protocol
 * execution mutates a tile other than the requester's. The sharded
 * engine (system/sharded.hh) observes exactly those points to keep
 * its speculative per-core scans sound; it also observes directory-
 * transaction entry as a guard that no such transaction ever runs
 * during a parallel phase. The default observer ignores everything
 * (the serial engine needs no visibility).
 */
class CoreTouchObserver
{
  public:
    virtual ~CoreTouchObserver() = default;

    /** A transaction is about to read/mutate core @p c's L1 copies. */
    virtual void onCrossTileTouch(CoreId c) { (void)c; }

    /** A directory transaction is starting on behalf of core @p c. */
    virtual void onDirectoryRequest(CoreId c) { (void)c; }
};

/**
 * Everything a protocol implementation may touch, owned by the
 * enclosing Multicore: configuration and address geometry, the tiles
 * (L1s, L2 slices, per-core stats/clocks), the message transport,
 * the energy/DRAM models, R-NUCA placement state, whole-system
 * statistics, and the functional reference memory — plus the
 * execution engine's cross-tile touch observer (may be null).
 */
struct ProtocolContext
{
    const SystemConfig &cfg;
    const AddressMap &addr;
    std::vector<std::unique_ptr<Tile>> &tiles;
    MessageTransport &net;
    EnergyModel &energy;
    DramModel &dram;
    PageTable &pageTable;
    const Placement &placement;
    SystemStats &stats;
    FunctionalMemory &mem;
    CoreTouchObserver *touch = nullptr;

    /**
     * Armed fault injector (fault/injector.hh), or null under
     * FaultPlan none — the soft-error hook in the directory
     * transaction path costs exactly one null test when disabled.
     */
    FaultInjector *fault = nullptr;
};

/**
 * L1 set information communicated with a miss (§3.2/§3.3): whether
 * the requester's set has an invalid way (short-cut promotion at PCT)
 * and the minimum last-access time over its valid lines (Timestamp
 * classifier check).
 */
struct L1SetHint
{
    bool hasInvalidWay = false;
    Cycle minLastAccess = 0;
};

/** Outcome of removing a holder's L1 copies (invalidation receipt). */
struct DropResult
{
    /** Private utilization at removal, summed over the core's copies
     * (a line can sit in both L1-D and L1-I). */
    std::uint32_t util = 0;
    bool wasModified = false; //!< a copy was M: data merged into the L2
};

} // namespace lacc

#endif // LACC_PROTOCOL_PROTOCOL_HH
