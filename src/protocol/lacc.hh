/**
 * @file
 * LaccProtocol: the paper's protocol — locality-aware adaptive
 * coherence over an ACKwise_p limited directory (§3). Directory
 * entries track p sharer pointers; when the sharer count exceeds p,
 * identities are dropped and exclusive requests broadcast the
 * invalidation with acknowledgements expected only from the actual
 * sharers (§3.1). The locality classifier (selected by
 * SystemConfig::classifierKind) decides private vs remote service per
 * (line, core).
 */

#ifndef LACC_PROTOCOL_LACC_HH
#define LACC_PROTOCOL_LACC_HH

#include <vector>

#include "protocol/base.hh"

namespace lacc {

/** ACKwise_p directory controller (broadcast on pointer overflow). */
class AckwiseDirectory final : public BaseDirectoryController
{
  public:
    explicit AckwiseDirectory(const ProtocolContext &ctx)
        : BaseDirectoryController(
              ctx, SharerList::makeAckwise(ctx.cfg.ackwisePointers))
    {}

  protected:
    Cycle fanOutInvalidations(CoreId home, L2Cache::Entry entry,
                              const HolderVec &targets,
                              Cycle t) override;

  private:
    /** Reusable per-tile broadcast arrival buffer (sized numCores). */
    std::vector<Cycle> bcastArrivals_;
};

/** The locality-aware adaptive protocol over ACKwise_p. */
class LaccProtocol final : public CoherenceProtocol
{
  public:
    explicit LaccProtocol(const ProtocolContext &ctx)
        : l1_(ctx), dir_(ctx)
    {
        l1_.bind(dir_);
        dir_.bind(l1_);
    }

    const char *name() const override { return "lacc"; }
    L1Controller &l1() override { return l1_; }
    DirectoryController &directory() override { return dir_; }

  private:
    BaseL1Controller l1_;
    AckwiseDirectory dir_;
};

} // namespace lacc

#endif // LACC_PROTOCOL_LACC_HH
