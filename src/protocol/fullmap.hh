/**
 * @file
 * FullMapProtocol: the baseline directory organization — a full-map
 * bit-vector directory entry per line (§3.1's comparison point and
 * the `ackwise` validation experiment's reference). Sharer identities
 * are always exact, so invalidations are always per-sharer unicasts;
 * everything else (R-NUCA placement, the locality classifier, the
 * remote-access machinery) is shared with the base controllers, so
 * the classifier knobs compose with this directory too.
 */

#ifndef LACC_PROTOCOL_FULLMAP_HH
#define LACC_PROTOCOL_FULLMAP_HH

#include "protocol/base.hh"

namespace lacc {

/** Full-map bit-vector directory controller (never broadcasts). */
class FullMapDirectory final : public BaseDirectoryController
{
  public:
    explicit FullMapDirectory(const ProtocolContext &ctx)
        : BaseDirectoryController(
              ctx, SharerList::makeFullMap(ctx.cfg.numCores))
    {}
};

/** The full-map-directory baseline protocol. */
class FullMapProtocol final : public CoherenceProtocol
{
  public:
    explicit FullMapProtocol(const ProtocolContext &ctx)
        : l1_(ctx), dir_(ctx)
    {
        l1_.bind(dir_);
        dir_.bind(l1_);
    }

    const char *name() const override { return "fullmap"; }
    L1Controller &l1() override { return l1_; }
    DirectoryController &directory() override { return dir_; }

  private:
    BaseL1Controller l1_;
    FullMapDirectory dir_;
};

} // namespace lacc

#endif // LACC_PROTOCOL_FULLMAP_HH
