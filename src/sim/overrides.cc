#include "sim/overrides.hh"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "fault/plan.hh"
#include "net/factory.hh"
#include "protocol/factory.hh"
#include "sim/config.hh"
#include "sim/named_registry.hh"
#include "system/engine.hh"

namespace lacc {

bool
ConfigOverrides::validateOrReport() const
{
    bool ok = true;
    if (!protocol.empty() &&
        !registry::validateName("protocol", protocol, protocolNames()))
        ok = false;
    if (!network.empty() &&
        !registry::validateName("network", network, networkNames()))
        ok = false;
    if (!faults.empty() &&
        !registry::validateName("fault plan", faults, faultNames()))
        ok = false;
    // NaN compares false against both bounds, so it would read as
    // "keep" everywhere else; reject it here explicitly.
    if (std::isnan(faultRate) || faultRate > 1.0) {
        std::fprintf(stderr,
                     "--fault-rate %g out of range [0, 1]\n", faultRate);
        ok = false;
    }
    return ok;
}

void
ConfigOverrides::apply(SystemConfig &cfg) const
{
    if (!protocol.empty())
        applyProtocolName(cfg, protocol);
    if (!network.empty())
        applyNetworkName(cfg, network);
    if (simThreads != 0) {
        cfg.simThreads = simThreads;
        cfg.engineKind =
            simThreads > 1 ? EngineKind::Sharded : EngineKind::Serial;
    }
    if (!faults.empty())
        applyFaultName(cfg, faults);
    if (faultRate >= 0.0)
        cfg.faultRate = faultRate;
    if (faultSeedSet)
        cfg.faultSeed = faultSeed;
}

void
ConfigOverrides::warnIfOverridingSweep(
    const std::vector<const SystemConfig *> &cfgs) const
{
    const auto warn_dim = [&cfgs](const char *what,
                                  const std::string &value,
                                  const char *(*name_for)(
                                      const SystemConfig &)) {
        if (value.empty())
            return;
        std::size_t overridden = 0;
        for (const SystemConfig *cfg : cfgs)
            if (value != name_for(*cfg))
                ++overridden;
        if (overridden > 0) {
            std::fprintf(stderr,
                         "[bench] warning: --%s %s overrides"
                         " %zu/%zu jobs whose configs select a"
                         " different %s; labels and table rows"
                         " keep their original %s names\n",
                         what, value.c_str(), overridden,
                         cfgs.size(), what, what);
        }
    };
    warn_dim("protocol", protocol, protocolNameFor);
    warn_dim("network", network, networkNameFor);
    warn_dim("faults", faults, faultNameFor);
}

bool
parseFiniteDouble(const char *s, double &out)
{
    char *end = nullptr;
    const double v = std::strtod(s, &end);
    // Overflow ("1e999") comes back as HUGE_VAL, so the finiteness
    // check covers it too.
    if (end == s || *end != '\0' || !std::isfinite(v))
        return false;
    out = v;
    return true;
}

bool
parseU64(const char *s, std::uint64_t lo, std::uint64_t hi,
         std::uint64_t &out)
{
    if (s == nullptr || *s == '\0')
        return false;
    std::uint64_t v = 0;
    int digits = 0;
    for (const char *p = s; *p != '\0'; ++p) {
        if (*p < '0' || *p > '9')
            return false;
        if (++digits > 19)
            return false;
        v = v * 10 + static_cast<std::uint64_t>(*p - '0');
    }
    if (v < lo || v > hi)
        return false;
    out = v;
    return true;
}

std::uint64_t
parseOrDie(const char *name, const char *s, std::uint64_t lo,
           std::uint64_t hi)
{
    std::uint64_t v = 0;
    if (!parseU64(s, lo, hi, v)) {
        std::fprintf(stderr,
                     "%s wants an integer in [%" PRIu64 ", %" PRIu64
                     "], got '%s'\n",
                     name, lo, hi, s);
        std::exit(2);
    }
    return v;
}

unsigned
clampJobsToBudget(unsigned jobs, std::uint32_t sim_threads,
                  unsigned hw_budget)
{
    if (jobs == 0)
        jobs = 1;
    const std::uint64_t per = std::max<std::uint32_t>(sim_threads, 1);
    const std::uint64_t budget = std::max(hw_budget, 1u);
    if (jobs * per <= budget)
        return jobs;
    return static_cast<unsigned>(
        std::max<std::uint64_t>(1, budget / per));
}

} // namespace lacc
