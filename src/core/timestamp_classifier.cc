#include "core/timestamp_classifier.hh"

namespace lacc {

Mode
TimestampClassifier::classify(LineRecords recs, CoreId core)
{
    return recs[core].mode;
}

bool
TimestampClassifier::onRemoteAccess(LineRecords recs, CoreId core,
                                    const RemoteAccessContext &ctx)
{
    CoreLocality &e = recs[core];
    e.active = true;

    // Timestamp check (§3.2): accrue utilization only if this line is
    // hotter (for this core) than the coldest valid line in the
    // requester's L1 set; trivially true with an invalid way.
    const bool check = ctx.hasInvalidWay ||
                       (e.lastAccess > ctx.l1MinLastAccess);
    e.remoteUtil = check ? e.remoteUtil + 1 : 1;
    e.lastAccess = ctx.now;

    if (oneWay_)
        return false;

    if (e.remoteUtil >= pct_) {
        e.mode = Mode::Private;
        return true;
    }
    return false;
}

void
TimestampClassifier::onWriteByOther(LineRecords recs, CoreId writer)
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
TimestampClassifier::onPrivateRemoval(LineRecords recs, CoreId core,
                                      std::uint32_t private_util,
                                      RemovalKind kind)
{
    // The (private + remote) >= PCT rule is shared with the RAT-based
    // classifiers; RAT-level updates are harmless here because this
    // classifier never consults the level.
    return removalDecision(recs[core], private_util, kind);
}

void
TimestampClassifier::onPrivateGrant(LineRecords recs, CoreId core,
                                    Cycle now)
{
    CoreLocality &e = recs[core];
    e.mode = Mode::Private;
    e.active = true;
    e.lastAccess = now;
}

const CoreLocality *
TimestampClassifier::peek(LineRecords recs, CoreId core) const
{
    return &recs[core];
}

} // namespace lacc
