#include "core/complete_classifier.hh"

namespace lacc {

Mode
CompleteClassifier::majorityOfTouched(LineRecords recs)
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

Mode
CompleteClassifier::classify(LineRecords recs, CoreId core)
{
    CoreLocality &e = recs[core];
    if (e.core == kInvalidCore) {
        // Learning short-cut (§5.3, evaluated as an extension): a new
        // sharer starts in the majority mode of the sharers already
        // seen, skipping its per-sharer classification phase.
        if (cfg_.completeLearningShortcut)
            e.mode = majorityOfTouched(recs);
        e.core = core;
    }
    return e.mode;
}

bool
CompleteClassifier::onRemoteAccess(LineRecords recs, CoreId core,
                                   const RemoteAccessContext &ctx)
{
    return remoteAccessDecision(recs[core], ctx);
}

void
CompleteClassifier::onWriteByOther(LineRecords recs, CoreId writer)
{
    for (CoreId c = 0; c < recs.size(); ++c) {
        CoreLocality &e = recs[c];
        if (c != writer && e.mode == Mode::Remote) {
            e.remoteUtil = 0;
            e.active = false;
        }
    }
}

Mode
CompleteClassifier::onPrivateRemoval(LineRecords recs, CoreId core,
                                     std::uint32_t private_util,
                                     RemovalKind kind)
{
    return removalDecision(recs[core], private_util, kind);
}

void
CompleteClassifier::onPrivateGrant(LineRecords recs, CoreId core,
                                   Cycle now)
{
    CoreLocality &e = recs[core];
    e.mode = Mode::Private;
    e.active = true;
    e.lastAccess = now;
}

const CoreLocality *
CompleteClassifier::peek(LineRecords recs, CoreId core) const
{
    return &recs[core];
}

} // namespace lacc
