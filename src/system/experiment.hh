/**
 * @file
 * Shared experiment runner for the harness and perfbench: builds a
 * system for a named benchmark and configuration, runs it, and
 * returns the statistics. Centralizes the op-count scaling knob
 * (environment variable LACC_SCALE) so every experiment honors it.
 */

#ifndef LACC_SYSTEM_EXPERIMENT_HH
#define LACC_SYSTEM_EXPERIMENT_HH

#include <string>

#include "sim/config.hh"
#include "sim/stats.hh"

namespace lacc {

/** Result of one benchmark x configuration simulation. */
struct RunResult
{
    SystemStats stats;
    Cycle completionTime = 0;
    double energyTotal = 0.0;
    std::uint64_t functionalErrors = 0;
    /**
     * Simulated operations retired by the run (per-core instruction
     * counts summed); deterministic for a given (bench, cfg, scale).
     * Serialized as result.sim_ops in the bench JSON.
     */
    std::uint64_t simOps = 0;
    /**
     * Coherence/memory invariant violations found by the post-run
     * verify::checkAll sweep. Only populated for fault-injected runs
     * (schema v3); silent-corruption classification in the faults
     * experiment requires this and functionalErrors to both be zero.
     */
    std::uint64_t verifyViolations = 0;
};

/**
 * Table 1 default configuration (64 cores, ACKwise_4, Limited_3,
 * PCT = 4, RATmax = 16, nRATlevels = 2).
 */
SystemConfig defaultConfig();

/**
 * Op-count scale from the environment (LACC_SCALE, default 1.0).
 * Raise it for higher-fidelity sweeps, lower it for smoke runs.
 */
double opScaleFromEnv();

/**
 * Run a named benchmark (workload/suite.hh) under @p cfg.
 * Functional checking is disabled for speed (data still moves through
 * the protocol; correctness is covered by the test suite) — except
 * for fault-injected runs, which keep every oracle armed and replay
 * verify::checkAll afterwards so silent corruption cannot hide.
 *
 * Throws RunAbort (sim/abort.hh) on watchdog expiry or an
 * unrecoverable injected fault; the harness runner catches it.
 *
 * @param bench      benchmark name
 * @param cfg        system configuration
 * @param op_scale   per-phase access multiplier; <= 0 reads LACC_SCALE
 * @param timeout_ms per-run wall-clock watchdog; <= 0 disarms
 */
RunResult runBenchmark(const std::string &bench, const SystemConfig &cfg,
                       double op_scale = -1.0, double timeout_ms = 0.0);

} // namespace lacc

#endif // LACC_SYSTEM_EXPERIMENT_HH
