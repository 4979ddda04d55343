#include "net/factory.hh"

#include "sim/named_registry.hh"

namespace lacc {

namespace {

/**
 * The single registration point. Every fabric is the one concrete
 * NetworkModel; the kind selects its cube geometry (or the crossbar),
 * so adding a topology means adding one entry here, its NetworkKind
 * and its case in the NetworkModel constructor.
 */
struct NetworkEntry
{
    const char *name;
    NetworkKind kind;
};

const NetworkEntry kNetworks[] = {
    {"mesh", NetworkKind::Mesh},
    {"torus", NetworkKind::Torus},
    {"ring", NetworkKind::Ring},
    {"xbar", NetworkKind::Crossbar},
};

} // namespace

std::unique_ptr<NetworkModel>
makeNetwork(const SystemConfig &cfg, EnergyModel &energy)
{
    return std::make_unique<NetworkModel>(cfg, energy);
}

const std::vector<std::string> &
networkNames()
{
    static const std::vector<std::string> names =
        registry::entryNames(kNetworks);
    return names;
}

const char *
networkNameFor(const SystemConfig &cfg)
{
    return registry::entryForKind(kNetworks, cfg.networkKind, "network")
        .name;
}

void
applyNetworkName(SystemConfig &cfg, const std::string &name)
{
    cfg.networkKind =
        registry::entryForNameOrFatal(kNetworks, "network", name).kind;
}

} // namespace lacc
