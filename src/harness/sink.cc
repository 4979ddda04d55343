#include "harness/sink.hh"

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <ostream>

#include "sim/log.hh"
#include "system/report.hh"

namespace lacc::harness {

namespace {

/** Banner block above every experiment's text output. */
void
banner(std::ostream &os, const Experiment &exp)
{
    os << "=====================================================\n"
       << exp.title << "\n" << exp.subtitle << "\n"
       << "=====================================================\n";
}

/**
 * Per-subsystem share table for a --profile run, appended after the
 * experiment's report (docs/BENCHMARKS.md shows the format).
 */
void
printProfile(std::ostream &os, const prof::Snapshot &snap)
{
    const std::uint64_t total = snap.totalNs();
    os << "\nProfile (exclusive time per subsystem, all threads)\n"
       << "  bucket         time_ms    share        scopes\n";
    char line[128];
    for (int b = 0; b < prof::kNumBuckets; ++b) {
        const double ms = static_cast<double>(snap.ns[b]) / 1e6;
        const double share =
            total > 0
                ? 100.0 * static_cast<double>(snap.ns[b]) /
                      static_cast<double>(total)
                : 0.0;
        std::snprintf(line, sizeof(line),
                      "  %-10s %12.3f %7.1f%% %13llu\n",
                      prof::bucketName(static_cast<prof::Bucket>(b)),
                      ms, share,
                      static_cast<unsigned long long>(snap.calls[b]));
        os << line;
    }
    std::snprintf(line, sizeof(line), "  %-10s %12.3f\n", "total",
                  static_cast<double>(total) / 1e6);
    os << line;
}

/** The "profile" JSON object of a --profile run. */
Json
profileJson(const prof::Snapshot &snap)
{
    const std::uint64_t total = snap.totalNs();
    Json buckets = Json::object();
    for (int b = 0; b < prof::kNumBuckets; ++b) {
        Json bucket = Json::object();
        bucket["ns"] = snap.ns[b];
        bucket["calls"] = snap.calls[b];
        bucket["share"] =
            total > 0 ? static_cast<double>(snap.ns[b]) /
                            static_cast<double>(total)
                      : 0.0;
        buckets[prof::bucketName(static_cast<prof::Bucket>(b))] =
            std::move(bucket);
    }
    Json profile = Json::object();
    profile["total_ns"] = total;
    profile["buckets"] = std::move(buckets);
    return profile;
}

} // namespace

Json
documentFor(const ExperimentOutcome &outcome)
{
    std::uint64_t total_ops = 0;
    for (const auto &jr : outcome.results)
        total_ops += jr.result.simOps;

    Json doc = Json::object();
    doc["schema_version"] = kBenchJsonSchemaVersion;
    doc["experiment"] = outcome.exp->name;
    doc["title"] = outcome.exp->title;
    doc["description"] = outcome.exp->description;
    doc["op_scale"] = outcome.opScale;
    doc["jobs"] =
        static_cast<std::uint64_t>(outcome.results.size());
    doc["wall_seconds"] = outcome.wallSeconds;
    doc["sim_ops"] = total_ops;
    doc["figure"] = outcome.figure;
    if (outcome.profiled)
        doc["profile"] = profileJson(outcome.profile);

    Json runs = Json::array();
    for (const auto &jr : outcome.results) {
        Json run = Json::object();
        run["label"] = jr.job.label;
        run["bench"] = jr.job.bench;
        run["wall_seconds"] = jr.wallSeconds;
        // Schema v3: aborted runs (watchdog timeout, unrecoverable
        // injected fault) keep their slot with a default result so
        // grid order survives; checkers skip their per-run checks.
        run["status"] = jr.failed ? "failed" : "ok";
        if (jr.failed)
            run["fail_reason"] = jr.failReason;
        run["config"] = toJson(jr.job.cfg);
        run["result"] = toJson(jr.result);
        runs.push(std::move(run));
    }
    doc["runs"] = std::move(runs);
    return doc;
}

void
writeJsonFile(const std::string &dir, const std::string &name,
              const Json &doc)
{
    namespace fs = std::filesystem;
    std::error_code ec;
    fs::create_directories(dir, ec);
    if (ec)
        fatal("cannot create JSON directory '%s': %s", dir.c_str(),
              ec.message().c_str());
    const fs::path path = fs::path(dir) / ("BENCH_" + name + ".json");
    std::ofstream os(path);
    if (!os)
        fatal("cannot open '%s' for writing", path.c_str());
    doc.write(os, 2);
    os << '\n';
    os.flush();
    if (!os)
        fatal("short write to '%s'", path.c_str());
}

bool
validArtifactExists(const std::string &dir, const Experiment &exp)
{
    namespace fs = std::filesystem;
    const fs::path path =
        fs::path(dir) / ("BENCH_" + exp.name + ".json");
    std::ifstream is(path);
    if (!is)
        return false;
    std::string text((std::istreambuf_iterator<char>(is)),
                     std::istreambuf_iterator<char>());
    if (!is.good() && !is.eof())
        return false;

    std::string error;
    const Json doc = Json::parse(text, &error);
    if (!error.empty() || !doc.isObject())
        return false;
    const Json *schema = doc.find("schema_version");
    const Json *name = doc.find("experiment");
    const Json *jobs = doc.find("jobs");
    const Json *runs = doc.find("runs");
    if (schema == nullptr || name == nullptr || jobs == nullptr ||
        runs == nullptr)
        return false;
    if (!schema->isNumber() || !name->isString() ||
        !jobs->isNumber() || !runs->isArray())
        return false;
    if (schema->asDouble() !=
        static_cast<double>(kBenchJsonSchemaVersion))
        return false;
    if (name->asString() != exp.name)
        return false;
    // A complete sweep wrote exactly one run record per job: a
    // truncated runs array (killed mid-write before the fatal() in
    // writeJsonFile could fire, or a partial copy) fails here.
    const double jobs_n = jobs->asDouble();
    return static_cast<double>(runs->elements().size()) == jobs_n &&
           static_cast<double>(exp.makeJobs().size()) == jobs_n;
}

ExperimentOutcome
runExperiment(const Experiment &exp, const SweepOptions &opts,
              std::ostream &text_out)
{
    const auto start = std::chrono::steady_clock::now();
    ExperimentOutcome outcome;
    outcome.exp = &exp;
    outcome.opScale = resolveOpScale(opts);
    banner(text_out, exp);
    if (opts.profile) {
        // Per-experiment attribution: zero the counters, record the
        // sweep, snapshot before the next experiment reuses them.
        prof::reset();
        prof::setEnabled(true);
    }
    outcome.results = runSweep(exp.makeJobs(), opts);
    if (opts.profile) {
        prof::setEnabled(false);
        outcome.profile = prof::snapshot();
        outcome.profiled = true;
    }

    const ReportContext ctx{outcome.results, outcome.opScale, text_out};
    outcome.figure = exp.report(ctx);
    if (outcome.profiled)
        printProfile(text_out, outcome.profile);
    outcome.wallSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    return outcome;
}

} // namespace lacc::harness
