#include "energy/model.hh"

namespace lacc {

EnergyCounts
EnergyModel::counts() const
{
    EnergyCounts total;
    for (const auto &s : slots_)
        total += s;
    return total;
}

EnergyBreakdown
EnergyModel::breakdown() const
{
    const EnergyCounts c = counts();
    const EnergyParams &p = params_;
    EnergyBreakdown b;
    b.l1i = static_cast<double>(c.l1iAccesses) * p.l1iAccess +
            static_cast<double>(c.l1iFills) * p.l1Fill +
            static_cast<double>(c.l1iTagOnly) * p.l1TagOnly;
    b.l1d = static_cast<double>(c.l1dAccesses) * p.l1dAccess +
            static_cast<double>(c.l1dFills) * p.l1Fill +
            static_cast<double>(c.l1dTagOnly) * p.l1TagOnly;
    b.l2 = static_cast<double>(c.l2Words) * p.l2WordAccess +
           static_cast<double>(c.l2Lines) * p.l2LineAccess +
           static_cast<double>(c.l2TagOnly) * p.l2TagOnly;
    b.directory = static_cast<double>(c.dirAccesses) * p.dirAccess;
    b.router = static_cast<double>(c.routerFlits) * p.routerFlit;
    b.link = static_cast<double>(c.linkFlits) * p.linkFlit;
    return b;
}

} // namespace lacc
