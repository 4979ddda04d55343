/**
 * @file
 * Tests of the benchmark's own measurement path: it must simulate
 * exactly what the library's runBenchmark() simulates, tracing must
 * not perturb the simulation, and the seeds must reach the inputs.
 *
 *   cmake --build .bench_build/perfbench --target perfbench_test
 *   ctest --test-dir .bench_build/perfbench
 */

#include <gtest/gtest.h>

#include <stdexcept>

#include "perfbench.hh"
#include "system/experiment.hh"
#include "system/report.hh"

using namespace perfbench;

namespace {

/** Small-scale copy of workload @p name, reduced to its first bench. */
WorkloadDef
small(const std::string &name, std::uint64_t seed = kDefaultSeed,
      std::uint64_t fault_seed = kDefaultFaultSeed)
{
    const double scale = name == "litmus-faults" ? 1.0 : 0.01;
    WorkloadDef w = makeWorkload(name, seed, fault_seed, scale);
    w.benches.resize(1);
    return w;
}

class PerWorkload : public ::testing::TestWithParam<std::string>
{};

TEST_P(PerWorkload, DirectPathMatchesRunBenchmark)
{
    const WorkloadDef w = small(GetParam());
    const SimResult r = runSim(w, w.benches.front(), false);
    ASSERT_FALSE(r.failed()) << r.abortReason;
    const lacc::RunResult ref =
        lacc::runBenchmark(w.benches.front(), w.cfg, w.opScale);
    EXPECT_EQ(r.signature, lacc::statsSignature(ref.stats));
    EXPECT_EQ(r.simOps, ref.simOps);
    EXPECT_EQ(r.stats.energy.total(), ref.energyTotal);
}

TEST_P(PerWorkload, WrappingKeepsStats)
{
    const WorkloadDef w = small(GetParam());
    const SimResult plain = runSim(w, w.benches.front(), false);
    const SimResult counted = runSim(w, w.benches.front(), true);
    ASSERT_FALSE(counted.failed()) << counted.abortReason;
    EXPECT_EQ(plain.signature, counted.signature);
    EXPECT_GT(counted.nextCalls, 0u);
    EXPECT_EQ(plain.nextCalls, 0u);
    EXPECT_NEAR(counted.warmupS + counted.measureS, counted.runS, 1e-6);
}

TEST_P(PerWorkload, PassIsCorrectAndRepeats)
{
    const WorkloadDef w = small(GetParam());
    const PassResult a = runPass(w, false);
    const PassResult b = runPass(w, true);
    EXPECT_EQ(a.failures(), 0u);
    EXPECT_EQ(b.failures(), 0u);
    EXPECT_EQ(a.digest, b.digest);
    EXPECT_GT(a.geomeanCycles(), 0.0);
    EXPECT_GT(b.prof.totalNs(), 0u);
    EXPECT_EQ(a.prof.totalNs(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Workloads, PerWorkload,
                         ::testing::ValuesIn(workloadNames()),
                         [](const auto &info) {
                             std::string n = info.param;
                             for (char &c : n)
                                 if (c == '-')
                                     c = '_';
                             return n;
                         });

TEST(Seeds, WorkloadSeedChangesDigest)
{
    const PassResult a = runPass(small("paper64", 42), false);
    const PassResult b = runPass(small("paper64", 43), false);
    EXPECT_NE(a.digest, b.digest);
}

TEST(Seeds, FaultSeedChangesDigest)
{
    // The litmus traces are fixed programs; the fault schedule is what
    // a seed changes there.
    const PassResult a = runPass(small("litmus-faults", 42, 1), false);
    const PassResult b = runPass(small("litmus-faults", 42, 2), false);
    EXPECT_NE(a.digest, b.digest);
}

TEST(Seeds, WarmupBoundaryIsStamped)
{
    const WorkloadDef w = small("paper64");
    const SimResult r = runSim(w, w.benches.front(), true);
    EXPECT_GT(r.warmupS, 0.0);
    EXPECT_GT(r.measureS, 0.0);
}

TEST(Engines, ShardedPassMatchesSerial)
{
    // paper64's traced run compares against a sharded-engine pass; the
    // counting wrapper must keep that engine parallel and exact.
    WorkloadDef w = small("paper64");
    const PassResult serial = runPass(w, false);
    w.cfg.engineKind = lacc::EngineKind::Sharded;
    w.cfg.simThreads = 2;
    const PassResult sharded = runPass(w, true);
    EXPECT_EQ(sharded.failures(), 0u);
    EXPECT_EQ(serial.digest, sharded.digest);
}

TEST(Workloads, UnknownNameThrows)
{
    EXPECT_THROW(makeWorkload("nope", 1, 1), std::invalid_argument);
}

} // namespace
