/**
 * @file
 * Result sink: assembles the BENCH_<experiment>.json document for a
 * completed sweep (schema kBenchJsonSchemaVersion) and drives whole
 * experiments end to end for the lacc_bench CLI.
 *
 * Document layout (docs/BENCHMARKS.md has the full schema):
 *
 *   {
 *     "schema_version": 4,
 *     "experiment": "fig08",
 *     "title": "...", "description": "...",
 *     "op_scale": 1.0, "jobs": 168, "wall_seconds": 12.3,
 *     "sim_ops": 123456,
 *     "figure": { ... experiment-specific, incl. "table" ... },
 *     "runs": [ {"label", "bench", "wall_seconds", "status",
 *                "config": {...}, "result": {...}}, ... ]
 *   }
 *
 * The top-level sim_ops sums result.sim_ops over the runs. Simulator
 * speed is measured by perfbench/, not from these documents.
 */

#ifndef LACC_HARNESS_SINK_HH
#define LACC_HARNESS_SINK_HH

#include <iosfwd>
#include <string>
#include <vector>

#include "harness/registry.hh"
#include "harness/runner.hh"
#include "sim/profiler.hh"

namespace lacc::harness {

/** A finished experiment: sweep results plus the report's JSON. */
struct ExperimentOutcome
{
    const Experiment *exp = nullptr;
    std::vector<JobResult> results;
    Json figure;
    double opScale = 1.0;
    double wallSeconds = 0.0; //!< whole sweep incl. report
    bool profiled = false;    //!< profile holds a --profile snapshot
    prof::Snapshot profile;   //!< per-subsystem exclusive times
};

/** Assemble the full BENCH_<name>.json document for @p outcome. */
Json documentFor(const ExperimentOutcome &outcome);

/**
 * Write @p doc to `<dir>/BENCH_<name>.json` (creating @p dir first).
 * fatal() on I/O errors so CI fails loudly rather than uploading a
 * truncated artifact.
 */
void writeJsonFile(const std::string &dir, const std::string &name,
                   const Json &doc);

/**
 * Run one experiment end to end: sweep with @p opts, format the text
 * output to @p text_out, and return the outcome (for JSON emission).
 */
ExperimentOutcome runExperiment(const Experiment &exp,
                                const SweepOptions &opts,
                                std::ostream &text_out);

/**
 * Crash-safe resume probe (`lacc_bench --resume`): does
 * `<dir>/BENCH_<name>.json` already hold a complete, current
 * artifact for @p exp? True only when the file parses as JSON, its
 * schema_version matches kBenchJsonSchemaVersion, its experiment
 * field is @p exp's name, and the runs array length equals the jobs
 * count — so corrupt, truncated, or stale-schema artifacts are
 * re-run rather than trusted.
 */
bool validArtifactExists(const std::string &dir, const Experiment &exp);

} // namespace lacc::harness

#endif // LACC_HARNESS_SINK_HH
