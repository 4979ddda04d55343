/**
 * @file
 * Protocol names: maps the coherence protocols' names <-> their
 * configurations, so the harness can sweep protocols by name
 * (`lacc_bench --protocol`). A protocol here is a directory
 * organization (SystemConfig::directoryKind); the one controller pair
 * in protocol/controllers.hh runs all of them.
 */

#ifndef LACC_PROTOCOL_FACTORY_HH
#define LACC_PROTOCOL_FACTORY_HH

#include <string>
#include <vector>

namespace lacc {

struct SystemConfig;

/** Registered protocol names, in table order: {"lacc", "fullmap"}. */
const std::vector<std::string> &protocolNames();

/**
 * Name of the protocol @p cfg selects (DirectoryKind::Ackwise ->
 * "lacc", DirectoryKind::FullMap -> "fullmap").
 */
const char *protocolNameFor(const SystemConfig &cfg);

/**
 * Reconfigure @p cfg to select the named protocol (harness sweeps by
 * name). fatal() on an unknown name, listing the valid ones.
 */
void applyProtocolName(SystemConfig &cfg, const std::string &name);

} // namespace lacc

#endif // LACC_PROTOCOL_FACTORY_HH
