/**
 * @file
 * Execution-engine tests (system/engine.hh, system/sharded.hh).
 *
 * The contract under test is the strongest one the simulator makes:
 * the sharded engine must reproduce the serial event loop's results
 * *bit-identically* — same stats digest, same per-core clocks, same
 * functional memory — for every classifier, every topology, and any
 * thread count. A single diverging counter here means the epoch/
 * commit-horizon machinery speculated past a cross-tile interaction.
 *
 * Also covered: the engine factory (names, config application), the
 * ConfigOverrides helper shared by the CLIs, the --jobs x
 * --sim-threads budget clamp, the serial-fallback path for workloads
 * without a thread-safe next(), and a litmus-corpus replay through
 * the sharded engine.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <string>
#include <vector>

#include "net/factory.hh"
#include "protocol/factory.hh"
#include "sim/overrides.hh"
#include "system/engine.hh"
#include "system/multicore.hh"
#include "system/report.hh"
#include "verify/fuzz.hh"
#include "workload/archetypes.hh"
#include "workload/trace_file.hh"

namespace lacc {
namespace {

SystemConfig
cfg8(ClassifierKind k)
{
    SystemConfig c;
    c.numCores = 8;
    c.meshWidth = 4;
    c.clusterSize = 4;
    c.numMemControllers = 2;
    c.classifierKind = k;
    return c;
}

/**
 * Same mixed workload as tests/test_determinism.cc: all six
 * archetypes + locks + barriers + the ifetch walker, so the engines
 * are compared on every op kind the event loop dispatches.
 */
SyntheticSpec
mixedSpec(std::uint32_t cores)
{
    SyntheticSpec s;
    s.name = "engine-mix";
    s.numCores = cores;
    s.mix.privateHot = 0.25;
    s.mix.privateStream = 0.2;
    s.mix.sharedRO = 0.2;
    s.mix.sharedPC = 0.15;
    s.mix.sharedStream = 0.1;
    s.mix.lockRMW = 0.1;
    s.roWriteFrac = 0.05;
    s.sharingDegree = 4;
    s.numLocks = 4;
    s.opsPerPhase = 1200;
    s.numPhases = 3;
    s.iFootprintLines = 8;
    return s;
}

/** Digest of a run under @p cfg with @p threads engine workers. */
std::uint64_t
signatureAt(SystemConfig cfg, std::uint32_t threads)
{
    if (threads != 0) {
        cfg.simThreads = threads;
        cfg.engineKind =
            threads > 1 ? EngineKind::Sharded : EngineKind::Serial;
    }
    SyntheticWorkload wl(mixedSpec(cfg.numCores), cfg);
    Multicore m(cfg);
    const SystemStats &stats = m.run(wl);
    EXPECT_EQ(m.functionalErrors(), 0u);
    return statsSignature(stats);
}

// ---------------------------------------------------------------------------
// Factory
// ---------------------------------------------------------------------------

TEST(EngineFactory, NamesAndRoundTrip)
{
    const std::vector<std::string> expect = {"serial", "sharded"};
    EXPECT_EQ(engineNames(), expect);

    SystemConfig cfg;
    EXPECT_STREQ(engineNameFor(cfg), "serial");
    applyEngineName(cfg, "sharded");
    EXPECT_EQ(cfg.engineKind, EngineKind::Sharded);
    EXPECT_STREQ(engineNameFor(cfg), "sharded");
    applyEngineName(cfg, "serial");
    EXPECT_EQ(cfg.engineKind, EngineKind::Serial);
}

TEST(EngineFactory, MulticoreReportsItsEngine)
{
    SystemConfig cfg = cfg8(ClassifierKind::Limited);
    EXPECT_STREQ(Multicore(cfg).engine().name(), "serial");
    cfg.engineKind = EngineKind::Sharded;
    cfg.simThreads = 2;
    EXPECT_STREQ(Multicore(cfg).engine().name(), "sharded");
}

// ---------------------------------------------------------------------------
// Bit-identical equality: sharded vs serial
// ---------------------------------------------------------------------------

TEST(EngineEquality, ShardedMatchesSerialPerClassifier)
{
    const ClassifierKind kinds[] = {
        ClassifierKind::Complete, ClassifierKind::Limited,
        ClassifierKind::Timestamp, ClassifierKind::AlwaysPrivate};
    for (const auto k : kinds) {
        const std::uint64_t serial = signatureAt(cfg8(k), 0);
        for (const std::uint32_t t : {2u, 4u}) {
            EXPECT_EQ(signatureAt(cfg8(k), t), serial)
                << "classifier " << static_cast<int>(k)
                << " diverges at --sim-threads " << t;
        }
    }
}

TEST(EngineEquality, ShardedMatchesSerialPerTopology)
{
    for (const auto &name : networkNames()) {
        SystemConfig cfg = cfg8(ClassifierKind::Limited);
        applyNetworkName(cfg, name);
        const std::uint64_t serial = signatureAt(cfg, 0);
        for (const std::uint32_t t : {2u, 4u}) {
            EXPECT_EQ(signatureAt(cfg, t), serial)
                << name << " diverges at --sim-threads " << t;
        }
    }
}

TEST(EngineEquality, ShardedMatchesCommittedGolden)
{
    // Not just self-consistency: the sharded engine at 4 threads must
    // land on the exact golden tests/test_determinism.cc pins for the
    // serial seed behavior.
    EXPECT_EQ(signatureAt(cfg8(ClassifierKind::Limited), 4),
              0x4a9d58c62567b5f4ULL);
}

TEST(EngineEquality, ThreadCountExceedingCoresIsClamped)
{
    // More workers than tiles: the pool clamps to numCores and the
    // result is still bit-identical.
    EXPECT_EQ(signatureAt(cfg8(ClassifierKind::Limited), 32),
              signatureAt(cfg8(ClassifierKind::Limited), 0));
}

TEST(EngineEquality, SimThreadsOneIsSerialEngine)
{
    // --sim-threads 1 must not select the sharded machinery.
    SystemConfig cfg = cfg8(ClassifierKind::Limited);
    ConfigOverrides ov;
    ov.simThreads = 1;
    ov.apply(cfg);
    EXPECT_EQ(cfg.engineKind, EngineKind::Serial);
    EXPECT_EQ(signatureAt(cfg, 0),
              signatureAt(cfg8(ClassifierKind::Limited), 0));
}

// ---------------------------------------------------------------------------
// Serial fallback for workloads without a thread-safe next()
// ---------------------------------------------------------------------------

/** Forwarding wrapper that hides concurrentNextSafe() (base: false). */
class UnsafeNextWorkload : public Workload
{
  public:
    explicit UnsafeNextWorkload(Workload &inner) : inner_(inner) {}

    const std::string &name() const override { return inner_.name(); }
    std::uint32_t numCores() const override { return inner_.numCores(); }
    std::uint32_t numLocks() const override { return inner_.numLocks(); }
    MemOp next(CoreId core) override { return inner_.next(core); }
    std::uint32_t
    iFootprintLines(CoreId core) const override
    {
        return inner_.iFootprintLines(core);
    }
    std::uint64_t
    footprintBytes() const override
    {
        return inner_.footprintBytes();
    }
    Addr
    lockAddr(std::uint32_t id) const override
    {
        return inner_.lockAddr(id);
    }
    Addr codeBase() const override { return inner_.codeBase(); }
    std::uint32_t
    warmupBarriers() const override
    {
        return inner_.warmupBarriers();
    }

  private:
    Workload &inner_;
};

TEST(EngineFallback, UnsafeWorkloadFallsBackToSerialResults)
{
    SystemConfig cfg = cfg8(ClassifierKind::Limited);
    cfg.engineKind = EngineKind::Sharded;
    cfg.simThreads = 4;
    SyntheticWorkload inner(mixedSpec(cfg.numCores), cfg);
    UnsafeNextWorkload wl(inner);
    ASSERT_FALSE(wl.concurrentNextSafe());
    Multicore m(cfg);
    const std::uint64_t sig = statsSignature(m.run(wl));
    EXPECT_EQ(m.functionalErrors(), 0u);
    EXPECT_EQ(sig, signatureAt(cfg8(ClassifierKind::Limited), 0));
}

// ---------------------------------------------------------------------------
// Litmus corpus through the sharded engine
// ---------------------------------------------------------------------------

TEST(EngineLitmus, CorpusReplaysCleanThroughShardedEngine)
{
    // Full timed runs only (stepwise replay drives testAccess and is
    // engine-independent): every committed litmus trace, under every
    // protocol, with the invariants + reference memory checking the
    // sharded engine's final state.
    std::vector<std::filesystem::path> traces;
    for (const auto &ent :
         std::filesystem::directory_iterator(LACC_LITMUS_DIR))
        if (ent.path().extension() == ".trace")
            traces.push_back(ent.path());
    std::sort(traces.begin(), traces.end());
    ASSERT_FALSE(traces.empty());

    for (const auto &path : traces) {
        const TraceWorkload w = TraceWorkload::load(path.string());
        for (const auto &proto : protocolNames()) {
            SystemConfig cfg = verify::fuzzConfig(w.numCores());
            applyProtocolName(cfg, proto);
            cfg.engineKind = EngineKind::Sharded;
            cfg.simThreads = 4;
            for (const auto &v :
                 verify::checkTrace(w, cfg, /*stepwise=*/false))
                ADD_FAILURE() << path.filename().string() << " x "
                              << proto << ": " << v;
        }
    }
}

// ---------------------------------------------------------------------------
// ConfigOverrides + thread-budget clamp (sim/overrides.hh)
// ---------------------------------------------------------------------------

TEST(Overrides, ApplySelectsEngineAndFactories)
{
    SystemConfig cfg;
    ConfigOverrides ov;
    ov.protocol = "fullmap";
    ov.network = "torus";
    ov.simThreads = 4;
    EXPECT_TRUE(ov.validateOrReport());
    ov.apply(cfg);
    EXPECT_STREQ(protocolNameFor(cfg), "fullmap");
    EXPECT_STREQ(networkNameFor(cfg), "torus");
    EXPECT_EQ(cfg.engineKind, EngineKind::Sharded);
    EXPECT_EQ(cfg.simThreads, 4u);

    ConfigOverrides bad;
    bad.protocol = "nope";
    EXPECT_FALSE(bad.validateOrReport());
    bad = ConfigOverrides{};
    bad.network = "nope";
    EXPECT_FALSE(bad.validateOrReport());
    EXPECT_TRUE(ConfigOverrides{}.validateOrReport());
    EXPECT_FALSE(ConfigOverrides{}.any());
    EXPECT_TRUE(ov.any());
}

TEST(Overrides, RejectsNonFiniteRatesAndOptionValues)
{
    // A NaN rate compares false against both range bounds; it must be
    // rejected, not treated as "keep the config's rate".
    ConfigOverrides ov;
    ov.faultRate = std::nan("");
    EXPECT_FALSE(ov.validateOrReport());
    ov.faultRate = 1.5;
    EXPECT_FALSE(ov.validateOrReport());
    ov.faultRate = 0.25;
    EXPECT_TRUE(ov.validateOrReport());

    double v = -1.0;
    EXPECT_TRUE(parseFiniteDouble("1e-3", v));
    EXPECT_DOUBLE_EQ(v, 1e-3);
    EXPECT_TRUE(parseFiniteDouble("1e300", v));
    EXPECT_TRUE(parseFiniteDouble("-2", v));
    EXPECT_DOUBLE_EQ(v, -2.0);
    for (const char *bad : {"", "2x", " ", "nan", "NAN", "inf", "-inf",
                            "infinity", "1e999", "0x"}) {
        v = 7.0;
        EXPECT_FALSE(parseFiniteDouble(bad, v)) << bad;
        EXPECT_DOUBLE_EQ(v, 7.0) << bad;
    }
}

TEST(Overrides, ClampJobsToBudget)
{
    // Within budget: untouched.
    EXPECT_EQ(clampJobsToBudget(8, 0, 16), 8u);
    EXPECT_EQ(clampJobsToBudget(8, 1, 16), 8u);
    EXPECT_EQ(clampJobsToBudget(8, 2, 16), 8u);
    // Over budget: jobs x simThreads capped to the budget.
    EXPECT_EQ(clampJobsToBudget(8, 4, 16), 4u);
    EXPECT_EQ(clampJobsToBudget(16, 3, 16), 5u);
    // A single job always survives, however oversubscribed.
    EXPECT_EQ(clampJobsToBudget(8, 32, 16), 1u);
    EXPECT_EQ(clampJobsToBudget(1, 1024, 1), 1u);
    // Degenerate inputs: 0 jobs means 1; 0 budget means 1.
    EXPECT_EQ(clampJobsToBudget(0, 1, 16), 1u);
    EXPECT_EQ(clampJobsToBudget(4, 1, 0), 1u);
    EXPECT_EQ(clampJobsToBudget(4, 1, 2), 2u);
}

} // namespace
} // namespace lacc
