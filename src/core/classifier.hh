/**
 * @file
 * The locality classifier (Sections 3.2-3.4).
 *
 * The directory keeps, per cache line, a fixed number of locality
 * records (LocalityClassifier::recordsPerLine()) from which the
 * classifier decides for each core whether it is a *private* sharer
 * (handed full line copies) or a *remote* sharer (serviced by word
 * accesses at the shared L2 home). Every variant the paper evaluates
 * is one class configured by two things, both read from
 * SystemConfig:
 *
 *  - the record count per line: numCores for Complete (Fig 6) and
 *    Timestamp, min(k, numCores) for Limited_k (§3.4, Fig 7), 0 for
 *    the always-private baseline. With one record per core, record c
 *    is core c's; with fewer, a core is looked up by the core ID its
 *    record names, takes a free record or replaces an inactive one,
 *    and an untracked core gets the majority vote of the tracked
 *    ones. The baseline's empty vote is Private, so it never leaves
 *    the private mode.
 *  - the promotion rule of a remote access: the RAT rule of §3.3
 *    (PCT with an invalid way in the requester's L1 set, otherwise
 *    the record's RAT level) for every kind but Timestamp, which
 *    accrues utilization only while the idealized last-access check
 *    of §3.2 passes and promotes at PCT (Fig 12 reference).
 *
 * The protocol variant Adapt1-way (§3.7) is expressed through the
 * `oneWay` flag: remote sharers are never promoted back to private.
 */

#ifndef LACC_CORE_CLASSIFIER_HH
#define LACC_CORE_CLASSIFIER_HH

#include <cstdint>
#include <vector>

#include "sim/config.hh"
#include "sim/span.hh"
#include "sim/types.hh"

namespace lacc {

/**
 * One locality record kept at the directory (Figs 6-7). Records live
 * in the L2 slice's record arena, recordsPerLine() per line
 * (cache/set_assoc.hh); a fresh record is CoreLocality{}. Packed to
 * 16 bytes so Limited_3's records cost 48 bytes per L2 line.
 */
struct CoreLocality
{
    Cycle lastAccess = 0;         //!< read by the Timestamp rule only
    std::uint32_t remoteUtil = 0; //!< remote utilization counter
    /**
     * The core the record describes, kInvalidCore until a core first
     * classifies through it: with fewer records than cores a free
     * record, with one per core an untouched one.
     */
    CoreId core = kInvalidCore;
    Mode mode = Mode::Private;    //!< P/R bit
    std::uint8_t ratLevel : 7;    //!< current RAT level (§3.3)
    bool active : 1;              //!< false once inactive (§3.4)

    CoreLocality() : ratLevel(0), active(true) {}

    bool
    operator==(const CoreLocality &o) const
    {
        return lastAccess == o.lastAccess && remoteUtil == o.remoteUtil &&
               core == o.core && mode == o.mode &&
               ratLevel == o.ratLevel && active == o.active;
    }
};

static_assert(sizeof(CoreLocality) == 16,
              "locality records are sized into the L2 metadata budget");
static_assert(kMaxRatLevels <= 128, "ratLevel is a 7-bit field");

/** One L2 line's locality records (its slice of the record arena). */
using LineRecords = Span<CoreLocality>;

/** Context communicated with an L1 miss that reaches the directory. */
struct RemoteAccessContext
{
    Cycle now = 0;
    /**
     * True when the requester's L1 set has an invalid way; enables the
     * short-cut promotion at PCT (§3.3) and trivially passes the
     * Timestamp check (§3.2).
     */
    bool hasInvalidWay = false;
    /**
     * Minimum last-access time over the valid lines of the requester's
     * L1 set (communicated on every miss; Timestamp rule only).
     */
    Cycle l1MinLastAccess = 0;
};

/** Reason a private copy was removed from an L1. */
enum class RemovalKind : std::uint8_t { Eviction, Invalidation };

/**
 * Classifier policy object; one per system, stateless across lines
 * except for configuration. All per-line state lives in the line's
 * LineRecords, which the caller owns (the L2 record arena) and which
 * start out, and return on invalidation to, CoreLocality{}.
 */
class LocalityClassifier
{
  public:
    /**
     * @param cfg system configuration: classifierKind, k, PCT, RATmax,
     *            nRATlevels, the learning short-cut, and Adapt1-way
     *            (protocolKind)
     */
    explicit LocalityClassifier(const SystemConfig &cfg);

    /**
     * Records per line: min(k, numCores) for Limited_k, numCores for
     * Complete and Timestamp, 0 for AlwaysPrivate. Every LineRecords
     * passed in below has exactly this size.
     */
    std::uint32_t recordsPerLine() const { return records_; }

    /**
     * Current mode of @p core for this line, tracking the core if it
     * can (see track()) and otherwise returning the majority vote.
     * Called once per directory transaction before choosing the
     * private or remote service path.
     */
    Mode classify(LineRecords recs, CoreId core);

    /**
     * Account one remote (word) access by @p core and decide
     * promotion. On promotion the state is updated to Private mode;
     * the remote utilization is retained so the classification at the
     * next eviction/invalidation covers the whole utilization epoch
     * (§3.2, Evictions and Invalidations). An untracked core accrues
     * nothing and cannot earn a promotion (§3.4).
     *
     * @return true if the core is promoted to a private sharer.
     */
    bool onRemoteAccess(LineRecords recs, CoreId core,
                        const RemoteAccessContext &ctx);

    /**
     * A write by @p writer resets the remote utilization counters of
     * all remote sharers other than the writer and makes them
     * inactive (§3.2 Write Requests, §3.4).
     */
    void onWriteByOther(LineRecords recs, CoreId writer);

    /**
     * Classification when @p core's private copy leaves its L1
     * (§3.2): stays private iff privateUtil + remoteUtil >= PCT.
     * Updates RAT level per §3.3 (eviction-demotion raises it,
     * invalidation-demotion leaves it, private classification resets
     * it), consumes the utilization epoch (remoteUtil := 0) and makes
     * the record inactive. A core that lost its record while holding
     * the line gets the majority vote.
     *
     * @return the resulting mode for future requests.
     */
    Mode onPrivateRemoval(LineRecords recs, CoreId core,
                          std::uint32_t private_util, RemovalKind kind);

    /**
     * Bookkeeping when a private copy is granted (initial grant or
     * promotion): marks a tracked core an active private sharer and
     * stamps its access time.
     */
    void onPrivateGrant(LineRecords recs, CoreId core, Cycle now);

    /** Inspect a core's record (tests / reporting); null when
     * untracked. */
    const CoreLocality *peek(LineRecords recs, CoreId core) const;

    /** True under the Adapt1-way ablation: demotion only (§3.7). */
    bool oneWay() const { return oneWay_; }

  private:
    /** @p core's record, or nullptr when it has none. */
    CoreLocality *find(LineRecords recs, CoreId core) const;

    /**
     * @p core's record, allocating one if it has none: a free record
     * first, else the first inactive one, which the newcomer replaces
     * seeded with the majority vote (taken before the replacement).
     * A record's first core starts Private (§3.2), or in the majority
     * mode under the learning short-cut. @return nullptr when every
     * record is held by another active core.
     */
    CoreLocality *track(LineRecords recs, CoreId core);

    /** Majority mode over the records naming a core; ties and the
     * empty vote resolve to Private, every core's initial mode. */
    static Mode majorityVote(LineRecords recs);

    /** Shared removal classification (§3.2, §3.3). */
    Mode removalDecision(CoreLocality &e, std::uint32_t private_util,
                         RemovalKind kind) const;

    std::uint32_t records_;
    /** One record per core: record c is core c's. */
    bool indexed_;
    bool timestamp_;
    bool oneWay_;
    bool learningShortcut_;
    std::uint32_t pct_;
    std::uint32_t ratMax_;
    /** SystemConfig::ratForLevel for each of the nRATlevels levels. */
    std::vector<std::uint32_t> rat_;
};

} // namespace lacc

#endif // LACC_CORE_CLASSIFIER_HH
