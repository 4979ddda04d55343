#include "core/classifier.hh"

#include <algorithm>

#include "sim/log.hh"

namespace lacc {

namespace {

std::uint32_t
recordsFor(const SystemConfig &cfg)
{
    switch (cfg.classifierKind) {
      case ClassifierKind::Complete:
      case ClassifierKind::Timestamp:
        return cfg.numCores;
      case ClassifierKind::Limited:
        return std::min(cfg.classifierK, cfg.numCores);
      case ClassifierKind::AlwaysPrivate:
        return 0;
    }
    panic("unknown classifier kind %u",
          static_cast<unsigned>(cfg.classifierKind));
}

} // namespace

LocalityClassifier::LocalityClassifier(const SystemConfig &cfg)
    : records_(recordsFor(cfg)), indexed_(records_ == cfg.numCores),
      timestamp_(cfg.classifierKind == ClassifierKind::Timestamp),
      oneWay_(cfg.protocolKind == ProtocolKind::AdaptOneWay),
      learningShortcut_(cfg.completeLearningShortcut), pct_(cfg.pct),
      ratMax_(cfg.ratMax)
{
    for (std::uint32_t l = 0; l < std::max(cfg.nRatLevels, 1u); ++l)
        rat_.push_back(cfg.ratForLevel(l));
}

Mode
LocalityClassifier::majorityVote(LineRecords recs)
{
    std::uint32_t remote = 0, total = 0;
    for (const CoreLocality &r : recs) {
        if (r.core == kInvalidCore)
            continue;
        ++total;
        if (r.mode == Mode::Remote)
            ++remote;
    }
    return (total > 0 && remote * 2 > total) ? Mode::Remote
                                             : Mode::Private;
}

CoreLocality *
LocalityClassifier::find(LineRecords recs, CoreId core) const
{
    if (indexed_)
        return &recs[core];
    for (CoreLocality &r : recs)
        if (r.core == core)
            return &r;
    return nullptr;
}

CoreLocality *
LocalityClassifier::track(LineRecords recs, CoreId core)
{
    CoreLocality *fresh = nullptr;
    if (indexed_) {
        CoreLocality &e = recs[core];
        if (e.core == core)
            return &e;
        fresh = &e;
    } else {
        CoreLocality *inactive = nullptr;
        for (CoreLocality &r : recs) {
            if (r.core == core)
                return &r;
            if (r.core == kInvalidCore) {
                if (fresh == nullptr)
                    fresh = &r;
            } else if (!r.active && inactive == nullptr) {
                inactive = &r;
            }
        }
        if (fresh == nullptr) {
            if (inactive == nullptr)
                return nullptr; // untracked: the list is unchanged
            // An inactive sharer relinquishes its record; the newcomer
            // starts in the majority mode of the tracked cores (§3.4).
            const Mode seed = majorityVote(recs);
            *inactive = CoreLocality{};
            inactive->core = core;
            inactive->mode = seed;
            return inactive;
        }
    }
    // Learning short-cut (§5.3, evaluated as an extension): a new
    // sharer starts in the majority mode of the sharers already seen,
    // skipping its per-sharer classification phase.
    if (learningShortcut_)
        fresh->mode = majorityVote(recs);
    fresh->core = core;
    return fresh;
}

Mode
LocalityClassifier::classify(LineRecords recs, CoreId core)
{
    if (const CoreLocality *r = track(recs, core))
        return r->mode;
    return majorityVote(recs);
}

bool
LocalityClassifier::onRemoteAccess(LineRecords recs, CoreId core,
                                   const RemoteAccessContext &ctx)
{
    CoreLocality *e = track(recs, core);
    if (e == nullptr)
        return false; // untracked: no utilization accrues (§3.4)
    e->active = true;

    std::uint32_t threshold;
    if (timestamp_) {
        // Timestamp check (§3.2): accrue utilization only if this line
        // is hotter (for this core) than the coldest valid line in the
        // requester's L1 set; trivially true with an invalid way.
        const bool check =
            ctx.hasInvalidWay || e->lastAccess > ctx.l1MinLastAccess;
        e->remoteUtil = check ? e->remoteUtil + 1 : 1;
        e->lastAccess = ctx.now;
        threshold = pct_;
    } else {
        // Saturate at RATmax: the counter width is sized for RATmax
        // (§3.3: "the number of bits needed to track remote
        // utilization should not be too high").
        if (e->remoteUtil < ratMax_)
            ++e->remoteUtil;
        // Short-cut (§3.3): an invalid way in the requester's L1 set
        // means a fill cannot pollute, so PCT suffices regardless of
        // RAT level (every level's RAT is >= PCT).
        threshold = ctx.hasInvalidWay ? pct_ : rat_[e->ratLevel];
    }

    if (oneWay_)
        return false; // Adapt1-way: remote sharers stay remote (§3.7)
    if (e->remoteUtil < threshold)
        return false;
    e->mode = Mode::Private;
    return true;
}

void
LocalityClassifier::onWriteByOther(LineRecords recs, CoreId writer)
{
    // The directory only demotes a core that classified through its
    // record first, so every remote sharer's record names its core.
    for (CoreLocality &r : recs) {
        if (r.core != writer && r.mode == Mode::Remote) {
            r.remoteUtil = 0;
            r.active = false;
        }
    }
}

Mode
LocalityClassifier::removalDecision(CoreLocality &e,
                                    std::uint32_t private_util,
                                    RemovalKind kind) const
{
    const std::uint64_t total =
        static_cast<std::uint64_t>(private_util) + e.remoteUtil;
    e.active = false;
    e.remoteUtil = 0; // the utilization epoch is consumed either way
    if (total >= pct_) {
        // Stays private; the core re-learns its classification from a
        // fresh RAT level (§3.3).
        e.mode = Mode::Private;
        e.ratLevel = 0;
        return Mode::Private;
    }
    e.mode = Mode::Remote;
    if (kind == RemovalKind::Eviction) {
        // Eviction signals cache-set pressure: raise RAT one level, up
        // to RATmax (§3.3). Invalidations leave the level unchanged
        // (the freed way relieves pressure). The Timestamp rule never
        // reads the level.
        if (e.ratLevel + 1u < rat_.size())
            ++e.ratLevel;
    }
    return Mode::Remote;
}

Mode
LocalityClassifier::onPrivateRemoval(LineRecords recs, CoreId core,
                                     std::uint32_t private_util,
                                     RemovalKind kind)
{
    if (CoreLocality *r = find(recs, core))
        return removalDecision(*r, private_util, kind);
    // The core lost its record while holding the line; no utilization
    // survives, so future requests fall back to the vote.
    return majorityVote(recs);
}

void
LocalityClassifier::onPrivateGrant(LineRecords recs, CoreId core,
                                   Cycle now)
{
    if (CoreLocality *r = find(recs, core)) {
        r->mode = Mode::Private;
        r->active = true;
        r->lastAccess = now;
    }
}

const CoreLocality *
LocalityClassifier::peek(LineRecords recs, CoreId core) const
{
    return find(recs, core);
}

} // namespace lacc
