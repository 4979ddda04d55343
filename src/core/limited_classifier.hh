/**
 * @file
 * Limited_k locality classifier (§3.4, Fig 7).
 *
 * The directory tracks locality records {core ID, mode, remote
 * utilization, RAT level} for at most k cores per line. Lookup
 * protocol, applied once per directory transaction via classify():
 *
 *  1. tracked core          -> use its record;
 *  2. free entry            -> allocate; the core starts Private
 *                              (the protocol initializes all cores as
 *                              private sharers, §3.2);
 *  3. inactive tracked core -> replace it; the newcomer starts in the
 *                              majority mode of the tracked cores;
 *  4. otherwise             -> majority vote, list unchanged (the core
 *                              remains untracked).
 *
 * Inactive sharers: a private sharer becomes inactive on invalidation
 * or eviction; a remote sharer becomes inactive on a write by another
 * core. Majority-vote ties resolve to Private (the protocol's initial
 * mode). The paper finds k = 3 sufficient to offset mis-seeding (§5.3).
 *
 * Storage: the line's k records, each naming its tracked core in
 * CoreLocality::core (kInvalidCore = free entry).
 */

#ifndef LACC_CORE_LIMITED_CLASSIFIER_HH
#define LACC_CORE_LIMITED_CLASSIFIER_HH

#include "core/classifier.hh"

namespace lacc {

/** The Limited_k classifier. */
class LimitedClassifier : public LocalityClassifier
{
  public:
    LimitedClassifier(const SystemConfig &cfg, bool one_way)
        : LocalityClassifier(cfg, one_way), k_(cfg.classifierK)
    {}

    std::uint32_t recordsPerLine() const override { return k_; }

    Mode classify(LineRecords recs, CoreId core) override;

    bool onRemoteAccess(LineRecords recs, CoreId core,
                        const RemoteAccessContext &ctx) override;

    void onWriteByOther(LineRecords recs, CoreId writer) override;

    Mode onPrivateRemoval(LineRecords recs, CoreId core,
                          std::uint32_t private_util,
                          RemovalKind kind) override;

    void onPrivateGrant(LineRecords recs, CoreId core, Cycle now) override;

    const CoreLocality *peek(LineRecords recs, CoreId core) const override;

    /** Majority mode over occupied records; Private on ties/empty. */
    static Mode majorityVote(LineRecords recs);

  private:
    /** Find the record tracking @p core, or nullptr. */
    static CoreLocality *findRecord(LineRecords recs, CoreId core);

    /**
     * Ensure @p core is tracked if possible (free record or inactive
     * replacement). @return its record or nullptr if untrackable.
     */
    static CoreLocality *allocate(LineRecords recs, CoreId core);

    std::uint32_t k_;
};

} // namespace lacc

#endif // LACC_CORE_LIMITED_CLASSIFIER_HH
