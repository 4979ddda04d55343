/**
 * @file
 * Unit tests for the reporting helpers (table formatting, numeric
 * formatting, geometric mean) and the experiment runner defaults.
 */

#include <sstream>

#include <gtest/gtest.h>

#include "system/experiment.hh"
#include "system/report.hh"

namespace lacc {
namespace {

TEST(Table, AlignsColumns)
{
    Table t({"A", "LongHeader"});
    t.addRow({"xx", "1"});
    t.addRow({"y", "22"});
    std::ostringstream os;
    t.print(os);
    const std::string out = os.str();
    // Header, rule, two rows.
    EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 4);
    // Every line equally wide (trailing pad).
    std::istringstream is(out);
    std::string line;
    std::size_t width = 0;
    while (std::getline(is, line)) {
        if (width == 0)
            width = line.size();
        EXPECT_EQ(line.size(), width);
    }
    EXPECT_NE(out.find("LongHeader"), std::string::npos);
}

TEST(Table, RowArityMismatchPanics)
{
    Table t({"A", "B"});
    EXPECT_DEATH(t.addRow({"only-one"}), "arity");
}

TEST(Fmt, FixedPrecision)
{
    EXPECT_EQ(fmt(1.23456, 2), "1.23");
    EXPECT_EQ(fmt(1.0, 3), "1.000");
    EXPECT_EQ(fmt(-0.5, 1), "-0.5");
}

TEST(Fmt, Percent)
{
    EXPECT_EQ(fmtPct(0.1534, 1), "15.3%");
    EXPECT_EQ(fmtPct(1.0, 0), "100%");
}

TEST(Geomean, Basics)
{
    EXPECT_DOUBLE_EQ(geomean({}), 0.0);
    EXPECT_DOUBLE_EQ(geomean({2.0}), 2.0);
    EXPECT_NEAR(geomean({1.0, 4.0}), 2.0, 1e-12);
    EXPECT_NEAR(geomean({2.0, 2.0, 2.0}), 2.0, 1e-12);
}

TEST(Geomean, InsensitiveToOrder)
{
    EXPECT_NEAR(geomean({0.5, 2.0, 1.0}), geomean({1.0, 0.5, 2.0}),
                1e-12);
}

TEST(Experiment, DefaultConfigIsTable1)
{
    const auto cfg = defaultConfig();
    EXPECT_EQ(cfg.numCores, 64u);
    EXPECT_EQ(cfg.pct, 4u);
    EXPECT_EQ(cfg.classifierKind, ClassifierKind::Limited);
    EXPECT_NO_FATAL_FAILURE(cfg.validate());
}

TEST(Experiment, OpScaleEnvParsing)
{
    unsetenv("LACC_SCALE");
    EXPECT_DOUBLE_EQ(opScaleFromEnv(), 1.0);
    setenv("LACC_SCALE", "0.5", 1);
    EXPECT_DOUBLE_EQ(opScaleFromEnv(), 0.5);
    setenv("LACC_SCALE", "garbage", 1);
    EXPECT_DOUBLE_EQ(opScaleFromEnv(), 1.0);
    unsetenv("LACC_SCALE");
}

TEST(Experiment, RunBenchmarkProducesStats)
{
    SystemConfig cfg = defaultConfig();
    cfg.numCores = 16;
    cfg.meshWidth = 4;
    cfg.numMemControllers = 4;
    const auto r = runBenchmark("water-sp", cfg, 0.05);
    EXPECT_GT(r.completionTime, 0u);
    EXPECT_GT(r.energyTotal, 0.0);
    EXPECT_EQ(r.functionalErrors, 0u);
    EXPECT_EQ(r.stats.perCore.size(), 16u);

    // sim_ops (the throughput numerator) sums the per-core retired
    // instruction counts.
    std::uint64_t instructions = 0;
    for (const auto &c : r.stats.perCore)
        instructions += c.instructions;
    EXPECT_GT(r.simOps, 0u);
    EXPECT_EQ(r.simOps, instructions);
}

TEST(Experiment, SimOpsRoundTripsThroughJson)
{
    SystemConfig cfg = defaultConfig();
    cfg.numCores = 16;
    cfg.meshWidth = 4;
    cfg.numMemControllers = 4;
    const auto r = runBenchmark("water-sp", cfg, 0.02);
    ASSERT_GT(r.simOps, 0u);

    const Json j = toJson(r);
    EXPECT_EQ(j.at("sim_ops").asUint(), r.simOps);
    EXPECT_EQ(j.at("stats").at("core_totals").at("instructions").asUint(),
              r.simOps);
    std::string err;
    EXPECT_EQ(Json::parse(j.dump(0), &err).at("sim_ops").asUint(),
              r.simOps);
    EXPECT_TRUE(err.empty()) << err;
}

} // namespace
} // namespace lacc
