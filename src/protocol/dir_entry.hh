/**
 * @file
 * Directory-entry metadata of an L2 slice line (Fig 6/7): the
 * directory-visible MESI summary state, the protocol's SharerList,
 * and the simulator's ground-truth holder oracle in L2Meta, plus the
 * line's locality-classifier records in the L2Cache's record arena
 * (L2Cache::Entry::records(), recordsPerLine() per line). Owned and
 * mutated exclusively by the protocol layer's DirectoryController;
 * system/Tile merely embeds the L2Cache array.
 *
 * Footprint: every L2 line of the system carries this metadata, so it
 * is kept to fixed-size, heap-free members — L2Meta is 56 bytes and
 * Limited_3's records 48, 104 bytes per line for the default config
 * (pinned by tests/test_dir.cc).
 */

#ifndef LACC_PROTOCOL_DIR_ENTRY_HH
#define LACC_PROTOCOL_DIR_ENTRY_HH

#include <cstdint>

#include "cache/set_assoc.hh"
#include "core/classifier.hh"
#include "protocol/core_vec.hh"
#include "protocol/sharer_list.hh"
#include "sim/types.hh"

namespace lacc {

/** Directory-visible state of an L2 line. */
enum class DirState : std::uint8_t {
    Uncached,  //!< no L1 holds a copy
    Shared,    //!< >= 1 read-only L1 copies
    Exclusive, //!< one L1 holds an E or M copy (owner)
};

/** Human-readable name for a DirState. */
inline const char *
dirStateName(DirState s)
{
    switch (s) {
      case DirState::Uncached: return "U";
      case DirState::Shared: return "S";
      case DirState::Exclusive: return "E";
      default: return "?";
    }
}

/**
 * Per-line metadata of an L2 slice: directory entry (Fig 6/7) plus
 * simulator bookkeeping.
 */
struct L2Meta
{
    Cycle busyUntil = 0;           //!< per-line serialization window
    /**
     * Protocol sharer tracking. Its organization (ACKwise_p or full
     * map) is fixed once per system by the directory controller and
     * survives invalidation.
     */
    SharerList sharers;
    /**
     * Ground-truth holder identities (which L1s hold a copy). The
     * protocol's SharerList may hide identities in ACKwise overflow
     * mode; the simulator uses this oracle for invalidation *timing*
     * (acks physically come from the actual holders) while protocol
     * decisions (unicast vs broadcast, ack counts) use the SharerList.
     * Kept in grant order — invalidation fan-out order is part of the
     * modeled timing (see protocol/core_vec.hh).
     */
    HolderVec holders;
    CoreId owner = kInvalidCore;   //!< valid iff dstate == Exclusive
    DirState dstate = DirState::Uncached;
    bool dirty = false;            //!< L2 copy newer than DRAM
};

/**
 * invalidate() reset for the L2 directory meta (found by ADL from
 * SetAssocCache::invalidate): protocol state is cleared, but the
 * sharer-list organization (and any spill buffers) survive, so a
 * refilled slot needs no setup and L2 slot churn performs no heap
 * traffic. invalidate() also returns the slot's classifier records to
 * CoreLocality{}.
 */
inline void
resetCacheMeta(L2Meta &m)
{
    m.dstate = DirState::Uncached;
    m.owner = kInvalidCore;
    m.sharers.clear();
    m.holders.clear();
    m.busyUntil = 0;
    m.dirty = false;
}

/** L2 slice array: hashed set index, locality-record arena. */
using L2Cache = SetAssocCache<L2Meta, true, CoreLocality>;

} // namespace lacc

#endif // LACC_PROTOCOL_DIR_ENTRY_HH
