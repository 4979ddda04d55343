/**
 * @file
 * Shared CLI-override plumbing: both CLIs (bench/lacc_bench.cc,
 * bench/lacc_verify.cc) accept --protocol/--network/--sim-threads
 * overrides that rewrite SystemConfigs built elsewhere (experiment
 * definitions, fuzz configs). The validation, application, and
 * "you are overriding a deliberate sweep" diagnostics live here once,
 * as do the strict number parsers both CLIs use for option values.
 */

#ifndef LACC_SIM_OVERRIDES_HH
#define LACC_SIM_OVERRIDES_HH

#include <cstdint>
#include <string>
#include <vector>

namespace lacc {

struct SystemConfig;

/** CLI-sourced config overrides; default-constructed = none. */
struct ConfigOverrides
{
    std::string protocol; //!< coherence protocol name; empty = keep
    std::string network;  //!< interconnect topology name; empty = keep
    std::string faults;   //!< fault-plan name; empty = keep
    double faultRate = -1.0;       //!< base fault rate; < 0 = keep
    bool faultSeedSet = false;     //!< faultSeed holds a --fault-seed
    std::uint64_t faultSeed = 0;   //!< fault-schedule seed override
    /**
     * Intra-simulation worker threads; 0 = keep the config's engine.
     * A value > 1 selects the sharded engine, 1 forces serial —
     * either way the results are bit-identical (engines trade
     * wall-clock, never statistics), so unlike protocol/network this
     * override never distorts a sweep.
     */
    std::uint32_t simThreads = 0;

    /** Any override set? */
    bool
    any() const
    {
        return !protocol.empty() || !network.empty() ||
               simThreads != 0 || !faults.empty() || faultRate >= 0.0 ||
               faultSeedSet;
    }

    /**
     * Validate the names against their factories; unknown names print
     * the one-line "unknown X (valid: ...)" diagnostic to stderr and
     * return false (CLIs exit 2).
     */
    bool validateOrReport() const;

    /** Rewrite @p cfg (fatal() on unknown names — validate first). */
    void apply(SystemConfig &cfg) const;

    /**
     * A --protocol/--network override rewrites job configs but not
     * their labels: an experiment that deliberately sweeps protocols
     * or topologies would print rows whose label names one variant
     * and whose numbers came from another. Warn loudly when any of
     * @p cfgs selects something the override replaces. (simThreads is
     * exempt: engines do not change results.)
     */
    void warnIfOverridingSweep(
        const std::vector<const SystemConfig *> &cfgs) const;
};

/**
 * Strict full-token parse of a finite floating-point option value.
 * Both CLIs route every real-valued option through this: "", "2x",
 * "nan", "inf" and out-of-range values such as "1e999" are rejected
 * (a NaN or infinity would otherwise slip past range checks written
 * as comparisons). Callers apply their own range on top.
 */
bool parseFiniteDouble(const char *s, double &out);

/**
 * Strict full-token decimal parse of an integer option value: every
 * character must be a digit, at most 19 of them, and the value must
 * land in [@p lo, @p hi]. "12x", "0x10", "-3", "+4", " 5" and "" are
 * all rejected — a typo must never silently run something other than
 * what the user asked for.
 */
bool parseU64(const char *s, std::uint64_t lo, std::uint64_t hi,
              std::uint64_t &out);

/**
 * parseU64 for option @p name, or print the valid range to stderr and
 * exit 2 (the CLIs' usage-error code).
 */
std::uint64_t parseOrDie(const char *name, const char *s,
                         std::uint64_t lo, std::uint64_t hi);

/**
 * Total-thread budget for a sweep: with @p jobs concurrent runs each
 * using @p sim_threads workers (0/1 = serial), cap the *job* count so
 * jobs x max(sim_threads, 1) stays within @p hw_budget threads.
 * @return the clamped job count (always >= 1); the caller warns when
 * it differs from @p jobs.
 */
unsigned clampJobsToBudget(unsigned jobs, std::uint32_t sim_threads,
                           unsigned hw_budget);

} // namespace lacc

#endif // LACC_SIM_OVERRIDES_HH
