#include "net/network.hh"

#include <algorithm>

#include "fault/injector.hh"
#include "net/factory.hh"
#include "sim/log.hh"
#include "sim/profiler.hh"

namespace lacc {

NetworkModel::NetworkModel(const SystemConfig &cfg, EnergyModel &energy)
    : name_(networkNameFor(cfg)), numCores_(cfg.numCores),
      hopLatency_(cfg.hopLatency), modelContention_(cfg.modelContention),
      crossbar_(cfg.networkKind == NetworkKind::Crossbar),
      energy_(energy), headScratch_(cfg.numCores, 0)
{
    if (hopLatency_ < 2)
        fatal("hopLatency must be >= 2 (1 router + 1 link cycle)");

    switch (cfg.networkKind) {
    case NetworkKind::Mesh:
    case NetworkKind::Torus: {
        const bool wrap = cfg.networkKind == NetworkKind::Torus;
        numDims_ = 2;
        dims_[0] = {cfg.meshWidth, 1, wrap};
        dims_[1] = {cfg.meshHeight(), cfg.meshWidth, wrap};
        break;
    }
    case NetworkKind::Ring:
        numDims_ = 1;
        dims_[0] = {numCores_, 1, true};
        break;
    case NetworkKind::Crossbar:
        // One contention slot per destination: the output ports are
        // the only shared resource (the switch is non-blocking).
        break;
    }
    if (!crossbar_)
        linksPerNode_ = 2 * numDims_;
    links_.resize(static_cast<std::size_t>(numCores_) * linksPerNode_);

    coords_.resize(numCores_);
    for (std::uint32_t n = 0; n < numCores_; ++n)
        for (std::uint32_t d = 0; d < numDims_; ++d)
            coords_[n][d] = static_cast<std::uint16_t>(
                n / dims_[d].stride % dims_[d].size);
}

Cycle
NetworkModel::unicast(CoreId src, CoreId dst, std::uint32_t flits,
                      Cycle depart)
{
    prof::Scope ps(prof::Network);
    ++stats_.unicasts;
    stats_.flitsInjected += flits;
    if (src == dst)
        return depart; // local slice: no network traversal

    Cycle t = depart;
    std::uint32_t hops = 0;
    routeHops(src, dst, [&](const Hop &h) {
        t = traverseLink(h.link, t, flits);
        ++hops;
    });
    const std::uint64_t fh = static_cast<std::uint64_t>(flits) * hops;
    stats_.flitHops += fh;
    energy_.addRouter(fh);
    energy_.addLink(fh);
    // Wormhole serialization: tail arrives flits-1 cycles after head.
    return t + (flits > 0 ? flits - 1 : 0);
}

Cycle
NetworkModel::broadcast(CoreId src, std::uint32_t flits, Cycle depart,
                        std::vector<Cycle> &arrivals)
{
    prof::Scope ps(prof::Network);
    const Cycle tail = flits > 0 ? flits - 1 : 0;
    arrivals.assign(numCores_, 0);
    arrivals[src] = depart + (numDims_ >= 2 ? tail : 0);
    headScratch_[src] = depart;

    Cycle max_arrival = arrivals[src];
    Cycle *const heads = headScratch_.data();
    Cycle *const arr = arrivals.data();
    treeHops(src, [&](const Hop &h) {
        const Cycle head = traverseLink(
            h.link, heads[h.from] + static_cast<Cycle>(h.delay) * flits,
            flits);
        heads[h.to] = head;
        arr[h.to] = head + tail;
        max_arrival = std::max(max_arrival, head + tail);
    });

    // A tree occupies numCores-1 links. A native broadcast injects
    // once and is replicated by every router; the crossbar's
    // emulation is numCores-1 serialized unicasts.
    const std::uint64_t entries = numCores_ - 1;
    const std::uint64_t copies = crossbar_ ? entries : 1;
    ++stats_.broadcasts;
    if (crossbar_)
        stats_.unicasts += entries;
    stats_.flitsInjected += flits * copies;
    stats_.flitHops += flits * entries;
    energy_.addLink(flits * entries);
    energy_.addRouter(flits * (crossbar_ ? entries : numCores_));
    return max_arrival;
}

void
NetworkModel::rollLinkFault(std::uint32_t link, Cycle t,
                            std::uint32_t flits)
{
    const LinkFault f = fault_->rollLink(link, t, flits);
    if (f == LinkFault::None || faultPending_)
        return; // first fault of the route wins
    faultPending_ = true;
    faultDrop_ = f == LinkFault::Drop;
}

void
NetworkModel::reset()
{
    std::fill(links_.begin(), links_.end(), LinkState{});
    stats_ = NetworkStats{};
}

} // namespace lacc
