/**
 * @file
 * Experiment registry for the unified benchmark harness.
 *
 * Every paper figure/table reproduction (and the extension studies) is
 * an Experiment: a named config-sweep generator plus a report function
 * that formats the paper-shaped text table and the figure-specific
 * JSON. The sweep itself is executed by harness/runner.hh — possibly
 * across threads — so experiments never run simulations directly; they
 * only describe the grid and consume the results in grid order.
 *
 * The built-in experiments (fig01..fig14, table1/2, ablation, ackwise,
 * scaling) live in harness/experiments.cc and register themselves the
 * first time the registry is used.
 */

#ifndef LACC_HARNESS_REGISTRY_HH
#define LACC_HARNESS_REGISTRY_HH

#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "sim/config.hh"
#include "sim/json.hh"
#include "system/experiment.hh"

namespace lacc::harness {

/** One benchmark x configuration point of an experiment's sweep. */
struct Job
{
    std::string bench;  //!< benchmark name (workload/suite.hh)
    SystemConfig cfg;   //!< full system configuration for this run
    std::string label;  //!< progress label, e.g. "fig8 barnes PCT=4"
};

/** A completed Job with its simulation result and wall-clock cost. */
struct JobResult
{
    Job job;
    RunResult result;
    double wallSeconds = 0.0;
    /**
     * The run aborted (RunAbort: watchdog timeout or an unrecoverable
     * injected fault). `result` holds defaults; the sink records the
     * run with "status": "failed" and the reason, and the JSON
     * checkers skip its per-run validations.
     */
    bool failed = false;
    std::string failReason; //!< "<tag>: <detail>" when failed
};

/** Everything a report function needs to format its outputs. */
struct ReportContext
{
    /** Sweep results, in the exact order makeJobs() produced them. */
    const std::vector<JobResult> &results;
    /** Resolved op-count scale the sweep ran at. */
    double opScale;
    /** Destination for the paper-shaped text output. */
    std::ostream &out;
};

/** A registered figure/table reproduction. */
struct Experiment
{
    std::string name;        //!< registry key, e.g. "fig08"
    std::string title;       //!< banner first line
    std::string subtitle;    //!< banner second line
    std::string description; //!< one-liner for `lacc_bench --list`

    /** Generate the sweep grid (may be empty for config-only tables). */
    std::function<std::vector<Job>()> makeJobs;

    /**
     * Write the text output below the banner (the sink prints the
     * banner from title/subtitle first) and return the
     * figure-specific JSON fragment (normalized tables, geomeans,
     * ...). The generic run records are added by the sink, not here.
     */
    std::function<Json(const ReportContext &)> report;
};

/** Name-keyed collection of experiments. */
class Registry
{
  public:
    /** The process-wide registry, with built-ins registered. */
    static Registry &instance();

    /** Register an experiment; panic() on a duplicate name. */
    void add(Experiment e);

    /** @return the experiment named @p name, or nullptr. */
    const Experiment *find(const std::string &name) const;

    /**
     * Experiments whose name contains @p filter as a substring, in
     * registration order; an empty filter matches everything.
     */
    std::vector<const Experiment *>
    match(const std::string &filter) const;

    /** Registered names, in registration order. */
    std::vector<std::string> names() const;

  private:
    std::vector<Experiment> experiments_;
};

/** Defined in experiments.cc: registers the built-in suite. */
void registerBuiltinExperiments(Registry &r);

} // namespace lacc::harness

#endif // LACC_HARNESS_REGISTRY_HH
