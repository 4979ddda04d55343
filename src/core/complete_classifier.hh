/**
 * @file
 * Complete locality classifier (§3.2/§3.3): per-line locality records
 * for every core in the system, with RAT levels replacing the
 * idealized timestamps. Storage-hungry (Fig 6, 60% overhead at 64
 * cores) but the accuracy reference for the Limited_k classifier.
 * Record c of a line belongs to core c; its CoreLocality::core is set
 * to c once the core has interacted with the line (learning
 * short-cut).
 *
 * Also defines AlwaysPrivateClassifier, the degenerate classifier that
 * keeps every core a private sharer forever — the baseline directory
 * protocol (equivalent to PCT = 1).
 */

#ifndef LACC_CORE_COMPLETE_CLASSIFIER_HH
#define LACC_CORE_COMPLETE_CLASSIFIER_HH

#include "core/classifier.hh"

namespace lacc {

/** Tracks locality for all cores (the Complete classifier). */
class CompleteClassifier : public LocalityClassifier
{
  public:
    CompleteClassifier(const SystemConfig &cfg, bool one_way)
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

  private:
    /** Majority mode over cores that already touched the line. */
    static Mode majorityOfTouched(LineRecords recs);
};

/** Baseline: every core is always a private sharer. */
class AlwaysPrivateClassifier : public LocalityClassifier
{
  public:
    explicit AlwaysPrivateClassifier(const SystemConfig &cfg)
        : LocalityClassifier(cfg, false)
    {}

    /** No per-line state is required. */
    std::uint32_t recordsPerLine() const override { return 0; }

    Mode
    classify(LineRecords, CoreId) override
    {
        return Mode::Private;
    }

    bool
    onRemoteAccess(LineRecords, CoreId, const RemoteAccessContext &) override
    {
        return true; // unreachable in practice: mode is always Private
    }

    void onWriteByOther(LineRecords, CoreId) override {}

    Mode
    onPrivateRemoval(LineRecords, CoreId, std::uint32_t,
                     RemovalKind) override
    {
        return Mode::Private;
    }

    void onPrivateGrant(LineRecords, CoreId, Cycle) override {}

    const CoreLocality *
    peek(LineRecords, CoreId) const override
    {
        return nullptr;
    }
};

} // namespace lacc

#endif // LACC_CORE_COMPLETE_CLASSIFIER_HH
