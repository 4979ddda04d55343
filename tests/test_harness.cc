/**
 * @file
 * Harness coverage: JSON value/writer/parser behavior, registry
 * lookup/filtering, RunResult JSON serialization, the sink document
 * schema, the --resume artifact probe, the litmus report's failed-run
 * accounting, LACC_SCALE validation, and the determinism guard (a
 * 2-job parallel sweep must be bit-identical to the serial run).
 */

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "harness/registry.hh"
#include "harness/runner.hh"
#include "harness/sink.hh"
#include "sim/json.hh"
#include "system/report.hh"

using namespace lacc;
using namespace lacc::harness;

namespace {

/** Small 16-core config so simulation-backed tests stay fast. */
SystemConfig
smallConfig()
{
    SystemConfig cfg = defaultConfig();
    cfg.numCores = 16;
    cfg.meshWidth = 4;
    return cfg;
}

constexpr double kTinyScale = 0.01;

} // namespace

// ---------------------------------------------------------------------------
// Json
// ---------------------------------------------------------------------------

TEST(Json, ScalarsAndTypes)
{
    EXPECT_TRUE(Json().isNull());
    EXPECT_TRUE(Json(true).isBool());
    EXPECT_TRUE(Json(42).isNumber());
    EXPECT_TRUE(Json(1.5).isNumber());
    EXPECT_TRUE(Json("hi").isString());
    EXPECT_TRUE(Json::array().isArray());
    EXPECT_TRUE(Json::object().isObject());

    EXPECT_EQ(Json(-7).asInt(), -7);
    EXPECT_EQ(Json(7u).asUint(), 7u);
    EXPECT_DOUBLE_EQ(Json(2.5).asDouble(), 2.5);
    EXPECT_DOUBLE_EQ(Json(7).asDouble(), 7.0);
    EXPECT_EQ(Json("abc").asString(), "abc");
}

TEST(Json, ObjectPreservesInsertionOrder)
{
    Json j = Json::object();
    j["zeta"] = 1;
    j["alpha"] = 2;
    j["mid"] = 3;
    const auto &items = j.items();
    ASSERT_EQ(items.size(), 3u);
    EXPECT_EQ(items[0].first, "zeta");
    EXPECT_EQ(items[1].first, "alpha");
    EXPECT_EQ(items[2].first, "mid");
    EXPECT_EQ(j.dump(0), "{\"zeta\":1,\"alpha\":2,\"mid\":3}");
}

TEST(Json, DumpParseRoundTrip)
{
    Json j = Json::object();
    j["u64"] = std::uint64_t{18446744073709551615ull};
    j["neg"] = -123456789;
    j["pi"] = 3.141592653589793;
    j["text"] = "line\nbreak \"quoted\" \\slash\t";
    j["flag"] = false;
    j["nothing"] = Json();
    Json arr = Json::array();
    arr.push(1);
    arr.push("two");
    arr.push(Json::array());
    j["arr"] = std::move(arr);

    for (const int indent : {0, 2}) {
        std::string err;
        const Json back = Json::parse(j.dump(indent), &err);
        EXPECT_TRUE(err.empty()) << err;
        EXPECT_EQ(back, j);
        EXPECT_EQ(back.dump(2), j.dump(2));
    }
    EXPECT_EQ(j.at("u64").asUint(), 18446744073709551615ull);
    EXPECT_EQ(j.at("neg").asInt(), -123456789);
}

TEST(Json, ParseAcceptsStandardForms)
{
    std::string err;
    const Json j = Json::parse(
        " { \"a\" : [ 1 , -2.5e3 , true , null , \"\\u0041\\u00e9\" ] } ",
        &err);
    ASSERT_TRUE(err.empty()) << err;
    ASSERT_TRUE(j.isObject());
    const Json &a = j.at("a");
    ASSERT_EQ(a.size(), 5u);
    EXPECT_EQ(a.at(std::size_t{0}).asUint(), 1u);
    EXPECT_DOUBLE_EQ(a.at(1).asDouble(), -2500.0);
    EXPECT_TRUE(a.at(2).asBool());
    EXPECT_TRUE(a.at(3).isNull());
    EXPECT_EQ(a.at(4).asString(), "A\xc3\xa9");
}

TEST(Json, ParseRejectsMalformedInput)
{
    for (const char *bad :
         {"", "{", "[1,", "{\"a\":}", "tru", "1.2.3", "\"unterminated",
          "{\"a\":1} trailing", "[1 2]", "nan"}) {
        std::string err;
        const Json j = Json::parse(bad, &err);
        EXPECT_TRUE(j.isNull()) << bad;
        EXPECT_FALSE(err.empty()) << bad;
    }
}

TEST(Json, FindAndMissingKeys)
{
    Json j = Json::object();
    j["present"] = 1;
    EXPECT_NE(j.find("present"), nullptr);
    EXPECT_EQ(j.find("absent"), nullptr);
    EXPECT_EQ(Json().find("anything"), nullptr);
}

// ---------------------------------------------------------------------------
// Table JSON
// ---------------------------------------------------------------------------

TEST(TableJson, HeadersAndRows)
{
    Table t({"a", "b"});
    t.addRow({"1", "x"});
    t.addRow({"2", "y"});
    const Json j = t.toJson();
    ASSERT_EQ(j.at("headers").size(), 2u);
    EXPECT_EQ(j.at("headers").at(std::size_t{0}).asString(), "a");
    ASSERT_EQ(j.at("rows").size(), 2u);
    EXPECT_EQ(j.at("rows").at(1).at(1).asString(), "y");
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

TEST(Registry, BuiltinsRegistered)
{
    const auto names = Registry::instance().names();
    const std::vector<std::string> expected = {
        "fig01", "fig02",  "fig08",  "fig09",    "fig10",
        "fig11", "fig12",  "fig13",  "fig14",    "table1",
        "table2", "ablation", "ackwise", "scaling", "network",
        "litmus", "faults"};
    EXPECT_EQ(names, expected);
}

TEST(Registry, FindAndFilter)
{
    const Registry &r = Registry::instance();
    ASSERT_NE(r.find("fig08"), nullptr);
    EXPECT_EQ(r.find("fig08")->name, "fig08");
    EXPECT_EQ(r.find("not-an-experiment"), nullptr);

    EXPECT_EQ(r.match("").size(), r.names().size());
    const auto tables = r.match("table");
    ASSERT_EQ(tables.size(), 2u);
    EXPECT_EQ(tables[0]->name, "table1");
    EXPECT_EQ(tables[1]->name, "table2");
    const auto fig1x = r.match("fig1");
    ASSERT_EQ(fig1x.size(), 5u); // fig10..fig14 (fig01 does not match)
    EXPECT_EQ(fig1x[0]->name, "fig10");
    EXPECT_TRUE(r.match("zzz").empty());

    // `lacc_bench --filter <name>` is the one entry point per figure:
    // every full name selects exactly that experiment.
    for (const auto &name : r.names()) {
        const auto hit = r.match(name);
        ASSERT_EQ(hit.size(), 1u) << name;
        EXPECT_EQ(hit[0]->name, name);
    }
}

TEST(Registry, EveryExperimentDescribesItsSweep)
{
    for (const auto *exp : Registry::instance().match("")) {
        EXPECT_FALSE(exp->title.empty()) << exp->name;
        EXPECT_FALSE(exp->description.empty()) << exp->name;
        // Job grids are stable: two generations agree in size/labels.
        const auto a = exp->makeJobs();
        const auto b = exp->makeJobs();
        ASSERT_EQ(a.size(), b.size()) << exp->name;
        for (std::size_t i = 0; i < a.size(); ++i) {
            EXPECT_EQ(a[i].label, b[i].label);
            EXPECT_EQ(a[i].bench, b[i].bench);
        }
    }
}

// ---------------------------------------------------------------------------
// LACC_SCALE validation (opScaleFromEnv)
// ---------------------------------------------------------------------------

TEST(OpScale, ValidatesEnvironment)
{
    const auto with = [](const char *value) {
        if (value == nullptr)
            unsetenv("LACC_SCALE");
        else
            setenv("LACC_SCALE", value, 1);
        const double v = opScaleFromEnv();
        unsetenv("LACC_SCALE");
        return v;
    };
    EXPECT_DOUBLE_EQ(with(nullptr), 1.0);
    EXPECT_DOUBLE_EQ(with("2.5"), 2.5);
    EXPECT_DOUBLE_EQ(with("  0.125  "), 0.125);
    EXPECT_DOUBLE_EQ(with("1e-2"), 0.01);
    // Garbage, partial parses, and non-positive values fall back to 1.
    EXPECT_DOUBLE_EQ(with("banana"), 1.0);
    EXPECT_DOUBLE_EQ(with("2x"), 1.0);
    EXPECT_DOUBLE_EQ(with("1.5.2"), 1.0);
    EXPECT_DOUBLE_EQ(with(""), 1.0);
    EXPECT_DOUBLE_EQ(with("0"), 1.0);
    EXPECT_DOUBLE_EQ(with("-3"), 1.0);
    EXPECT_DOUBLE_EQ(with("inf"), 1.0);
    EXPECT_DOUBLE_EQ(with("nan"), 1.0);
}

// ---------------------------------------------------------------------------
// RunResult JSON serialization
// ---------------------------------------------------------------------------

TEST(RunResultJson, RoundTripsThroughTextAndBack)
{
    const RunResult r =
        runBenchmark("matmul", smallConfig(), kTinyScale);
    ASSERT_GT(r.completionTime, 0u);

    const Json j = toJson(r);
    std::string err;
    const Json parsed = Json::parse(j.dump(2), &err);
    ASSERT_TRUE(err.empty()) << err;
    EXPECT_EQ(parsed, j);

    // Headline scalars and derived aggregates are what the run holds.
    EXPECT_EQ(parsed.at("completion_time").asUint(), r.completionTime);
    EXPECT_DOUBLE_EQ(parsed.at("energy_total").asDouble(),
                     r.energyTotal);
    EXPECT_EQ(parsed.at("functional_errors").asUint(),
              r.functionalErrors);
    const Json &s = parsed.at("stats");
    EXPECT_EQ(s.at("cores").asUint(), r.stats.perCore.size());
    EXPECT_EQ(s.at("completion_time").asUint(),
              r.stats.completionTime());
    EXPECT_EQ(s.at("l1d").at("loads").asUint() +
                  s.at("l1d").at("stores").asUint(),
              r.stats.totalL1dAccesses());
    EXPECT_EQ(s.at("misses").at("total").asUint(),
              r.stats.totalMisses().total());
    EXPECT_EQ(s.at("latency").at("total").asUint(),
              r.stats.totalLatency().total());
    EXPECT_DOUBLE_EQ(s.at("energy").at("total").asDouble(),
                     r.stats.energy.total());
    EXPECT_EQ(s.at("protocol").at("remote_reads").asUint(),
              r.stats.protocol.remoteReads);
    EXPECT_EQ(s.at("eviction_util").at("total").asUint(),
              r.stats.evictionUtil.total());
}

// ---------------------------------------------------------------------------
// Sweep runner: parallel == serial (determinism guard)
// ---------------------------------------------------------------------------

TEST(Runner, ParallelSweepBitIdenticalToSerial)
{
    std::vector<Job> jobs;
    for (const char *bench : {"matmul", "streamcluster"}) {
        SystemConfig adaptive = smallConfig();
        SystemConfig baseline = smallConfig();
        baseline.classifierKind = ClassifierKind::AlwaysPrivate;
        baseline.pct = 1;
        jobs.push_back({bench, adaptive, std::string(bench) + " a"});
        jobs.push_back({bench, baseline, std::string(bench) + " b"});
    }

    SweepOptions serial;
    serial.jobs = 1;
    serial.opScale = kTinyScale;
    serial.progress = false;
    SweepOptions parallel = serial;
    parallel.jobs = 2;

    const auto rs = runSweep(jobs, serial);
    const auto rp = runSweep(jobs, parallel);
    ASSERT_EQ(rs.size(), jobs.size());
    ASSERT_EQ(rp.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        EXPECT_EQ(rs[i].job.label, jobs[i].label);
        EXPECT_EQ(rp[i].job.label, jobs[i].label);
        EXPECT_GT(rs[i].result.completionTime, 0u);
        // Full-stats comparison via the canonical serialization:
        // doubles print shortest-round-trip, so equal text means
        // bit-identical values.
        EXPECT_EQ(toJson(rp[i].result).dump(0),
                  toJson(rs[i].result).dump(0))
            << jobs[i].label;
    }
}

// ---------------------------------------------------------------------------
// Sink: document schema + file emission
// ---------------------------------------------------------------------------

TEST(Sink, DocumentSchemaAndFileEmission)
{
    const Experiment *exp = Registry::instance().find("table1");
    ASSERT_NE(exp, nullptr);
    SweepOptions opts;
    opts.jobs = 1;
    opts.opScale = kTinyScale;
    opts.progress = false;

    std::ostringstream text;
    const ExperimentOutcome outcome = runExperiment(*exp, opts, text);
    EXPECT_NE(text.str().find("Table 1: Architectural parameters"),
              std::string::npos);

    const Json doc = documentFor(outcome);
    EXPECT_EQ(doc.at("schema_version").asInt(),
              kBenchJsonSchemaVersion);
    EXPECT_EQ(doc.at("experiment").asString(), "table1");
    EXPECT_DOUBLE_EQ(doc.at("op_scale").asDouble(), kTinyScale);
    EXPECT_EQ(doc.at("jobs").asUint(), doc.at("runs").size());
    EXPECT_TRUE(doc.at("figure").isObject());
    EXPECT_GE(doc.at("wall_seconds").asDouble(), 0.0);

    namespace fs = std::filesystem;
    const std::string dir = "test_harness_json_out";
    writeJsonFile(dir, exp->name, doc);
    const fs::path path = fs::path(dir) / "BENCH_table1.json";
    ASSERT_TRUE(fs::exists(path));
    std::ifstream in(path);
    std::stringstream buf;
    buf << in.rdbuf();
    std::string err;
    const Json back = Json::parse(buf.str(), &err);
    EXPECT_TRUE(err.empty()) << err;
    EXPECT_EQ(back, doc);
    fs::remove_all(dir);
}

TEST(Sink, SweepDocumentRecordsRuns)
{
    const Experiment *exp = Registry::instance().find("fig14");
    ASSERT_NE(exp, nullptr);

    // Trim to a 2-run slice of the real grid so the test stays fast:
    // run the first benchmark pair through the real report path is
    // unnecessary here; we only validate run-record assembly.
    ExperimentOutcome outcome;
    outcome.exp = exp;
    outcome.opScale = kTinyScale;
    const auto jobs = exp->makeJobs();
    ASSERT_GE(jobs.size(), 2u);
    SweepOptions opts;
    opts.jobs = 2;
    opts.opScale = kTinyScale;
    opts.progress = false;
    outcome.results =
        runSweep({jobs[0], jobs[1]}, opts);
    outcome.figure = Json::object();

    const Json doc = documentFor(outcome);
    ASSERT_EQ(doc.at("runs").size(), 2u);
    const Json &run = doc.at("runs").at(std::size_t{0});
    EXPECT_EQ(run.at("bench").asString(), jobs[0].bench);
    EXPECT_EQ(run.at("label").asString(), jobs[0].label);
    EXPECT_EQ(run.at("config").at("num_cores").asUint(), 64u);
    EXPECT_GT(run.at("result").at("completion_time").asUint(), 0u);
    EXPECT_GE(run.at("wall_seconds").asDouble(), 0.0);

    // Schema v4: the top-level sim_ops sums result.sim_ops; the
    // retired throughput fields appear at neither level.
    EXPECT_EQ(doc.at("schema_version").asInt(), 4);
    EXPECT_GT(run.at("result").at("sim_ops").asUint(), 0u);
    std::uint64_t total_ops = 0;
    for (const auto &rr : doc.at("runs").elements())
        total_ops += rr.at("result").at("sim_ops").asUint();
    EXPECT_EQ(doc.at("sim_ops").asUint(), total_ops);
    for (const char *gone : {"repeat", "wall_ms", "ops_per_sec"})
        EXPECT_EQ(doc.find(gone), nullptr) << gone;
    for (const char *gone : {"sim_ops", "wall_ms", "ops_per_sec"})
        EXPECT_EQ(run.find(gone), nullptr) << gone;
}

// ---------------------------------------------------------------------------
// Crash-safe --resume probe
// ---------------------------------------------------------------------------

TEST(Sink, ValidArtifactExistsOnlyForCompleteCurrentArtifacts)
{
    namespace fs = std::filesystem;
    const Experiment *exp = Registry::instance().find("fig01");
    ASSERT_NE(exp, nullptr);

    // A complete artifact as the sink writes it, over placeholder
    // results (the probe never looks inside the run records).
    ExperimentOutcome outcome;
    outcome.exp = exp;
    for (const Job &job : exp->makeJobs()) {
        JobResult jr;
        jr.job = job;
        outcome.results.push_back(std::move(jr));
    }
    ASSERT_GT(outcome.results.size(), 1u);
    const Json good = documentFor(outcome);

    Json truncated = good;
    Json short_runs = Json::array();
    const auto &all_runs = good.at("runs").elements();
    for (std::size_t i = 0; i + 1 < all_runs.size(); ++i)
        short_runs.push(all_runs[i]);
    truncated["runs"] = std::move(short_runs);
    Json wrong_exp = good;
    wrong_exp["experiment"] = "fig02";
    Json v3 = good;
    v3["schema_version"] = 3;

    struct Case
    {
        const char *what;
        const char *text; //!< file contents; nullptr = no file
        bool valid;
    };
    const std::string good_s = good.dump(2);
    const std::string truncated_s = truncated.dump(2);
    const std::string wrong_exp_s = wrong_exp.dump(2);
    const std::string v3_s = v3.dump(2);
    const std::string cut_s = good_s.substr(0, good_s.size() / 2);
    const Case cases[] = {
        {"complete", good_s.c_str(), true},
        {"missing file", nullptr, false},
        {"unparseable", cut_s.c_str(), false},
        {"truncated runs", truncated_s.c_str(), false},
        {"wrong experiment", wrong_exp_s.c_str(), false},
        {"schema_version 3", v3_s.c_str(), false},
    };

    const std::string dir = "test_harness_resume_probe";
    const fs::path path = fs::path(dir) / ("BENCH_" + exp->name + ".json");
    for (const Case &c : cases) {
        fs::remove_all(dir);
        fs::create_directories(dir);
        if (c.text != nullptr)
            std::ofstream(path) << c.text;
        EXPECT_EQ(validArtifactExists(dir, *exp), c.valid) << c.what;
    }
    fs::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Litmus report: failed runs are never "functionally clean"
// ---------------------------------------------------------------------------

TEST(LitmusReport, CountsFailedRunsAndNeverClaimsClean)
{
    const Experiment *exp = Registry::instance().find("litmus");
    ASSERT_NE(exp, nullptr);
    std::vector<JobResult> results;
    for (const Job &job : exp->makeJobs()) {
        JobResult jr;
        jr.job = job;
        jr.result.completionTime = 100;
        results.push_back(std::move(jr));
    }
    ASSERT_GT(results.size(), 1u);

    const auto report = [&](std::ostringstream &text) {
        return exp->report(ReportContext{results, kTinyScale, text});
    };
    std::ostringstream clean;
    EXPECT_EQ(report(clean).at("failedRuns").asUint(), 0u);
    EXPECT_NE(clean.str().find("functionally clean"), std::string::npos);

    results[1].failed = true;
    results[1].failReason = "timeout: watchdog: run exceeded 0.01 ms";
    results[1].result = RunResult{};
    std::ostringstream text;
    const Json fig = report(text);
    EXPECT_EQ(fig.at("failedRuns").asUint(), 1u);
    EXPECT_EQ(fig.at("functionalErrors").asUint(), 0u);
    EXPECT_EQ(text.str().find("functionally clean"), std::string::npos)
        << text.str();
    EXPECT_NE(text.str().find("1 of " + std::to_string(results.size()) +
                              " litmus runs FAILED"),
              std::string::npos)
        << text.str();
}
