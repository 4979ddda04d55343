#include "sim/config.hh"

#include <sstream>

#include "sim/log.hh"

namespace lacc {

const char *
classifierKindName(ClassifierKind k)
{
    switch (k) {
      case ClassifierKind::Complete: return "Complete";
      case ClassifierKind::Limited: return "Limited";
      case ClassifierKind::Timestamp: return "Timestamp";
      case ClassifierKind::AlwaysPrivate: return "AlwaysPrivate";
      default: return "?";
    }
}

const char *
protocolKindName(ProtocolKind k)
{
    switch (k) {
      case ProtocolKind::Adaptive: return "Adapt2-way";
      case ProtocolKind::AdaptOneWay: return "Adapt1-way";
      default: return "?";
    }
}

const char *
directoryKindName(DirectoryKind k)
{
    switch (k) {
      case DirectoryKind::Ackwise: return "ACKwise";
      case DirectoryKind::FullMap: return "FullMap";
      default: return "?";
    }
}

const char *
networkKindName(NetworkKind k)
{
    switch (k) {
      case NetworkKind::Mesh: return "Mesh";
      case NetworkKind::Torus: return "Torus";
      case NetworkKind::Ring: return "Ring";
      case NetworkKind::Crossbar: return "Crossbar";
      default: return "?";
    }
}

const char *
engineKindName(EngineKind k)
{
    switch (k) {
      case EngineKind::Serial: return "serial";
      case EngineKind::Sharded: return "sharded";
      default: return "?";
    }
}

const char *
faultKindName(FaultKind k)
{
    switch (k) {
      case FaultKind::None: return "none";
      case FaultKind::Links: return "links";
      case FaultKind::Soft: return "soft";
      case FaultKind::Storm: return "storm";
      default: return "?";
    }
}

std::uint32_t
SystemConfig::ratForLevel(std::uint32_t level) const
{
    if (nRatLevels <= 1 || level == 0)
        return pct;
    if (level >= nRatLevels)
        level = nRatLevels - 1;
    // Additive steps from PCT to RATmax, (nRatLevels - 1) steps total.
    const std::uint32_t span = ratMax > pct ? ratMax - pct : 0;
    return pct + span * level / (nRatLevels - 1);
}

void
SystemConfig::validate() const
{
    if (numCores == 0 || meshWidth == 0 || numCores % meshWidth != 0)
        fatal("numCores (%u) must be a positive multiple of meshWidth (%u)",
              numCores, meshWidth);
    if (lineSize == 0 || (lineSize & (lineSize - 1)) != 0)
        fatal("lineSize (%u) must be a power of two", lineSize);
    if (pageSize < lineSize || (pageSize & (pageSize - 1)) != 0)
        fatal("pageSize (%u) must be a power of two >= lineSize", pageSize);
    if (l1dAssoc == 0 || l1iAssoc == 0 || l2Assoc == 0)
        fatal("cache associativity must be positive");
    if (l1dSets() == 0 || l1iSets() == 0 || l2Sets() == 0)
        fatal("cache geometry yields zero sets");
    if (pct == 0)
        fatal("PCT must be >= 1");
    if (ratMax < pct)
        fatal("RATmax (%u) must be >= PCT (%u)", ratMax, pct);
    if (nRatLevels == 0 || nRatLevels > kMaxRatLevels)
        fatal("nRATlevels (%u) must be in [1, %u]", nRatLevels,
              kMaxRatLevels);
    if (classifierKind == ClassifierKind::Limited && classifierK == 0)
        fatal("Limited classifier needs k >= 1");
    if (directoryKind == DirectoryKind::Ackwise && ackwisePointers == 0)
        fatal("ACKwise needs at least one hardware pointer");
    if (numMemControllers == 0 || numMemControllers > numCores)
        fatal("numMemControllers (%u) must be in [1, numCores]",
              numMemControllers);
    if (clusterSize == 0 || numCores % clusterSize != 0)
        fatal("clusterSize (%u) must divide numCores (%u)", clusterSize,
              numCores);
    if (simThreads == 0 || simThreads > 1024)
        fatal("simThreads (%u) must be in [1, 1024]", simThreads);
    if (!(faultRate >= 0.0) || faultRate > 1.0)
        fatal("faultRate (%g) must be in [0, 1]", faultRate);
}

std::string
SystemConfig::summary() const
{
    std::ostringstream os;
    os << numCores << " cores, " << directoryKindName(directoryKind);
    if (directoryKind == DirectoryKind::Ackwise)
        os << ackwisePointers;
    os << ", " << protocolKindName(protocolKind) << ", PCT=" << pct
       << ", classifier=" << classifierKindName(classifierKind);
    if (classifierKind == ClassifierKind::Limited)
        os << classifierK;
    if (classifierKind != ClassifierKind::Timestamp &&
        classifierKind != ClassifierKind::AlwaysPrivate) {
        os << ", RATmax=" << ratMax << ", nRATlevels=" << nRatLevels;
    }
    // The default fabric is implicit so pre-existing banners stay
    // byte-identical; non-mesh runs announce their topology. Same for
    // the execution engine: only non-serial runs announce it.
    if (networkKind != NetworkKind::Mesh)
        os << ", net=" << networkKindName(networkKind);
    if (engineKind != EngineKind::Serial)
        os << ", engine=" << engineKindName(engineKind) << "x"
           << simThreads;
    // Fault-free runs keep the pre-fault banner byte-identical.
    if (faultKind != FaultKind::None)
        os << ", faults=" << faultKindName(faultKind) << "@"
           << faultRate;
    return os.str();
}

} // namespace lacc
