#include "core/limited_classifier.hh"

namespace lacc {

Mode
LimitedClassifier::majorityVote(LineRecords recs)
{
    std::uint32_t remote = 0, total = 0;
    for (const CoreLocality &r : recs) {
        if (r.core == kInvalidCore)
            continue;
        ++total;
        if (r.mode == Mode::Remote)
            ++remote;
    }
    // Ties (incl. the empty list) resolve to Private: the protocol's
    // initial classification for every core (§3.2).
    return (total > 0 && remote * 2 > total) ? Mode::Remote
                                             : Mode::Private;
}

CoreLocality *
LimitedClassifier::findRecord(LineRecords recs, CoreId core)
{
    for (CoreLocality &r : recs)
        if (r.core == core)
            return &r;
    return nullptr;
}

CoreLocality *
LimitedClassifier::allocate(LineRecords recs, CoreId core)
{
    // Free entry: the newcomer starts out Private like every core at
    // protocol start (§3.2).
    for (CoreLocality &r : recs) {
        if (r.core == kInvalidCore) {
            r = CoreLocality{};
            r.core = core;
            return &r;
        }
    }
    // Replacement: an inactive sharer relinquishes its entry; the
    // newcomer is seeded with the majority mode of the tracked cores
    // (vote taken before the replacement, §3.4).
    for (CoreLocality &r : recs) {
        if (!r.active) {
            const Mode seed = majorityVote(recs);
            r = CoreLocality{};
            r.core = core;
            r.mode = seed;
            return &r;
        }
    }
    return nullptr;
}

Mode
LimitedClassifier::classify(LineRecords recs, CoreId core)
{
    if (auto *r = findRecord(recs, core))
        return r->mode;
    if (auto *r = allocate(recs, core))
        return r->mode;
    return majorityVote(recs);
}

bool
LimitedClassifier::onRemoteAccess(LineRecords recs, CoreId core,
                                  const RemoteAccessContext &ctx)
{
    auto *r = findRecord(recs, core);
    if (r == nullptr)
        r = allocate(recs, core);
    if (r == nullptr) {
        // Untracked and untrackable: no utilization accrues, so the
        // core cannot earn a promotion (§3.4: the list is unchanged).
        return false;
    }
    return remoteAccessDecision(*r, ctx);
}

void
LimitedClassifier::onWriteByOther(LineRecords recs, CoreId writer)
{
    for (CoreLocality &r : recs) {
        if (r.core == kInvalidCore || r.core == writer)
            continue;
        if (r.mode == Mode::Remote) {
            r.remoteUtil = 0;
            r.active = false;
        }
    }
}

Mode
LimitedClassifier::onPrivateRemoval(LineRecords recs, CoreId core,
                                    std::uint32_t private_util,
                                    RemovalKind kind)
{
    if (auto *r = findRecord(recs, core))
        return removalDecision(*r, private_util, kind);
    // The core lost its entry while holding the line; no utilization
    // record survives, so future requests fall back to the vote.
    return majorityVote(recs);
}

void
LimitedClassifier::onPrivateGrant(LineRecords recs, CoreId core, Cycle)
{
    // Limited_k keeps no access time: only the Timestamp classifier
    // reads one.
    if (auto *r = findRecord(recs, core)) {
        r->mode = Mode::Private;
        r->active = true;
    }
}

const CoreLocality *
LimitedClassifier::peek(LineRecords recs, CoreId core) const
{
    return findRecord(recs, core);
}

} // namespace lacc
