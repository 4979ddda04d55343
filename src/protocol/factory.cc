#include "protocol/factory.hh"

#include "sim/config.hh"
#include "sim/named_registry.hh"

namespace lacc {

namespace {

/**
 * The single registration point: adding a protocol means adding one
 * entry here plus its DirectoryKind and SharerList organization (see
 * protocol/controllers.cc). Lookup and diagnostics come from the
 * shared named-registry helpers.
 */
struct ProtocolEntry
{
    const char *name;
    DirectoryKind kind;
};

const ProtocolEntry kProtocols[] = {
    {"lacc", DirectoryKind::Ackwise},
    {"fullmap", DirectoryKind::FullMap},
};

} // namespace

const std::vector<std::string> &
protocolNames()
{
    static const std::vector<std::string> names =
        registry::entryNames(kProtocols);
    return names;
}

const char *
protocolNameFor(const SystemConfig &cfg)
{
    return registry::entryForKind(kProtocols, cfg.directoryKind,
                                  "protocol")
        .name;
}

void
applyProtocolName(SystemConfig &cfg, const std::string &name)
{
    cfg.directoryKind =
        registry::entryForNameOrFatal(kProtocols, "protocol", name)
            .kind;
}

} // namespace lacc
