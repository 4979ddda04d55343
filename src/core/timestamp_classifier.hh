/**
 * @file
 * Timestamp-based locality classifier (§3.2) — the idealized scheme
 * the RAT heuristic approximates (Fig 12 reference).
 *
 * The directory keeps, per line and per core, a 64-bit last-access
 * timestamp besides the mode and remote utilization. A remote access
 * increments the utilization counter only when the Timestamp check
 * passes: the line's last access (by the requesting core, at the L2)
 * is more recent than the minimum last-access time over the valid
 * lines in the requester's L1 set (communicated with the miss);
 * otherwise the counter resets to 1. The check passes trivially when
 * the requester's set has an invalid way. Promotion happens at PCT.
 * Record c of a line belongs to core c (Fig 6 with timestamps).
 */

#ifndef LACC_CORE_TIMESTAMP_CLASSIFIER_HH
#define LACC_CORE_TIMESTAMP_CLASSIFIER_HH

#include "core/classifier.hh"

namespace lacc {

/** The idealized Timestamp-based classifier. */
class TimestampClassifier : public LocalityClassifier
{
  public:
    TimestampClassifier(const SystemConfig &cfg, bool one_way)
        : LocalityClassifier(cfg, one_way)
    {}

    std::uint32_t recordsPerLine() const override { return numCores_; }

    Mode classify(LineRecords recs, CoreId core) override;

    bool onRemoteAccess(LineRecords recs, CoreId core,
                        const RemoteAccessContext &ctx) override;

    void onWriteByOther(LineRecords recs, CoreId writer) override;

    Mode onPrivateRemoval(LineRecords recs, CoreId core,
                          std::uint32_t private_util,
                          RemovalKind kind) override;

    void onPrivateGrant(LineRecords recs, CoreId core, Cycle now) override;

    const CoreLocality *peek(LineRecords recs, CoreId core) const override;
};

} // namespace lacc

#endif // LACC_CORE_TIMESTAMP_CLASSIFIER_HH
