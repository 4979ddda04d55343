/**
 * @file
 * Fault-injection layer tests: the (72,64) SECDED code over every
 * single- and double-bit corruption pattern, the fault-plan registry,
 * the injector's pure-hash determinism, fault-schedule equality
 * across execution engines (the --sim-threads contract extended to
 * faults), the transport retransmit path, and the watchdog.
 */

#include <limits>

#include <gtest/gtest.h>

#include "fault/injector.hh"
#include "fault/plan.hh"
#include "fault/secded.hh"
#include "sim/abort.hh"
#include "system/experiment.hh"
#include "system/multicore.hh"
#include "system/report.hh"
#include "workload/suite.hh"

namespace lacc {
namespace {

// ---------------------------------------------------------------------------
// SECDED code.
// ---------------------------------------------------------------------------

TEST(Secded, CleanRoundTrip)
{
    for (const std::uint64_t d :
         {std::uint64_t{0}, ~std::uint64_t{0}, std::uint64_t{1},
          std::uint64_t{0xDEADBEEFCAFEF00D}, std::uint64_t{0x5555555555555555}}) {
        const SecdedWord w = secdedEncode(d);
        const SecdedDecode r = secdedDecode(w);
        EXPECT_EQ(r.status, SecdedStatus::Clean);
        EXPECT_EQ(r.data, d);
    }
}

TEST(Secded, EverySingleBitCorrected)
{
    const std::uint64_t d = 0xA5C3F00D12345678;
    for (std::uint32_t bit = 0; bit < 72; ++bit) {
        SecdedWord w = secdedEncode(d);
        secdedFlip(w, bit);
        const SecdedDecode r = secdedDecode(w);
        EXPECT_EQ(r.status, bit < 64 ? SecdedStatus::CorrectedData
                                     : SecdedStatus::CorrectedCheck)
            << "bit " << bit;
        EXPECT_EQ(r.data, d) << "bit " << bit;
    }
}

TEST(Secded, EveryDoubleBitDetected)
{
    const std::uint64_t d = 0x0123456789ABCDEF;
    for (std::uint32_t a = 0; a < 72; ++a) {
        for (std::uint32_t b = a + 1; b < 72; ++b) {
            SecdedWord w = secdedEncode(d);
            secdedFlip(w, a);
            secdedFlip(w, b);
            EXPECT_EQ(secdedDecode(w).status,
                      SecdedStatus::DetectedDouble)
                << "bits " << a << "," << b;
        }
    }
}

// ---------------------------------------------------------------------------
// Plan registry.
// ---------------------------------------------------------------------------

TEST(FaultPlanRegistry, NamesRoundTrip)
{
    const auto &names = faultNames();
    ASSERT_EQ(names.size(), 4u);
    EXPECT_EQ(names[0], "none");
    for (const auto &name : names) {
        SystemConfig cfg;
        applyFaultName(cfg, name);
        EXPECT_STREQ(faultNameFor(cfg), name.c_str());
    }
}

TEST(FaultPlanRegistry, NonePlanIsInert)
{
    SystemConfig cfg;
    cfg.faultKind = FaultKind::None;
    const FaultPlan p = makeFaultPlan(cfg);
    EXPECT_FALSE(p.linksActive());
    EXPECT_FALSE(p.softActive());
}

TEST(FaultPlanRegistry, RatesScaleWithFaultRate)
{
    SystemConfig cfg;
    cfg.faultKind = FaultKind::Storm;
    cfg.faultRate = 1e-3;
    const FaultPlan p1 = makeFaultPlan(cfg);
    cfg.faultRate = 2e-3;
    const FaultPlan p2 = makeFaultPlan(cfg);
    EXPECT_DOUBLE_EQ(p2.linkDropRate, 2 * p1.linkDropRate);
    EXPECT_DOUBLE_EQ(p2.linkCorruptRate, 2 * p1.linkCorruptRate);
    EXPECT_DOUBLE_EQ(p2.softErrorRate, 2 * p1.softErrorRate);
    EXPECT_TRUE(p1.linksActive());
    EXPECT_TRUE(p1.softActive());
}

TEST(FaultPlanRegistry, ShippedPlansProtectEverything)
{
    // The zero-silent-corruption guarantee rests on full ECC coverage;
    // no shipped plan may quietly drop a structure from it.
    for (const auto &name : faultNames()) {
        SystemConfig cfg;
        applyFaultName(cfg, name);
        const FaultPlan p = makeFaultPlan(cfg);
        EXPECT_TRUE(p.protectL1) << name;
        EXPECT_TRUE(p.protectL2) << name;
        EXPECT_TRUE(p.protectDir) << name;
    }
}

// ---------------------------------------------------------------------------
// Injector: stateless pure-hash rolls.
// ---------------------------------------------------------------------------

SystemConfig
faultCfg(FaultKind kind, double rate, std::uint64_t seed = 0xFA17)
{
    SystemConfig cfg;
    cfg.numCores = 8;
    cfg.meshWidth = 4;
    cfg.clusterSize = 4;
    cfg.numMemControllers = 2;
    cfg.faultKind = kind;
    cfg.faultRate = rate;
    cfg.faultSeed = seed;
    return cfg;
}

TEST(FaultInjectorTest, RollsArePureFunctionsOfEventIdentity)
{
    const SystemConfig cfg = faultCfg(FaultKind::Storm, 0.1);
    FaultInjector a(cfg), b(cfg);
    // Interleave differently ordered queries: stateless hashing means
    // history cannot matter, only the event identity.
    for (std::uint32_t i = 0; i < 2000; ++i) {
        const std::uint32_t link = i % 32;
        const Cycle t = 17 * i;
        EXPECT_EQ(a.rollLink(link, t, 3), b.rollLink(link, t, 3));
    }
    for (std::uint32_t i = 0; i < 2000; ++i) {
        const LineAddr line = 0x1000 + 64 * (i % 64);
        EXPECT_EQ(a.rollSoft(FaultUnit::L2Data, line, i),
                  b.rollSoft(FaultUnit::L2Data, line, i));
    }
}

TEST(FaultInjectorTest, SeedChangesTheSchedule)
{
    FaultInjector a(faultCfg(FaultKind::Links, 0.05, 1));
    FaultInjector b(faultCfg(FaultKind::Links, 0.05, 2));
    std::uint32_t differs = 0;
    for (std::uint32_t i = 0; i < 4000; ++i)
        differs += a.rollLink(i % 16, i, 3) != b.rollLink(i % 16, i, 3);
    EXPECT_GT(differs, 0u);
}

TEST(FaultInjectorTest, RateZeroNeverFiresRateOneAlwaysFires)
{
    FaultInjector zero(faultCfg(FaultKind::Soft, 0.0));
    FaultInjector one(faultCfg(FaultKind::Soft, 1.0));
    for (std::uint32_t i = 0; i < 500; ++i) {
        EXPECT_EQ(zero.rollSoft(FaultUnit::L1Data, 64 * i, i),
                  SoftFault::None);
        EXPECT_NE(one.rollSoft(FaultUnit::L1Data, 64 * i, i),
                  SoftFault::None);
    }
}

TEST(FaultInjectorTest, StrikeBitStaysInRange)
{
    FaultInjector inj(faultCfg(FaultKind::Soft, 1.0));
    for (std::uint32_t i = 0; i < 500; ++i)
        EXPECT_LT(inj.strikeBit(64 * i, i, 512), 512u);
}

// ---------------------------------------------------------------------------
// System level: determinism, recovery accounting, watchdog.
// ---------------------------------------------------------------------------

TEST(FaultSystem, ScheduleIdenticalAcrossEngines)
{
    // The --sim-threads contract extended to fault injection: the
    // sharded engine replays the same event stream at the same
    // timestamps, so the fault schedule — and with it every counter —
    // must be bit-identical to the serial engine's.
    SystemConfig serial = faultCfg(FaultKind::Storm, 3e-6);
    SystemConfig sharded = serial;
    sharded.simThreads = 4;
    sharded.engineKind = EngineKind::Sharded;

    const RunResult rs = runBenchmark("radix", serial, 0.05);
    const RunResult rp = runBenchmark("radix", sharded, 0.05);
    EXPECT_EQ(statsSignature(rs.stats), statsSignature(rp.stats));
    EXPECT_GT(rs.stats.faults.softErrors +
                  rs.stats.faults.linkDrops +
                  rs.stats.faults.linkCorruptions,
              0u)
        << "fault schedule never fired; the equality above is vacuous";
    EXPECT_EQ(rs.stats.faults.retransmits, rp.stats.faults.retransmits);
    EXPECT_EQ(rs.stats.faults.eccCorrected, rp.stats.faults.eccCorrected);
    EXPECT_EQ(rs.stats.faults.silentCorruptions, 0u);
    EXPECT_EQ(rp.stats.faults.silentCorruptions, 0u);
}

TEST(FaultSystem, RetransmitPathRecoversAndCharges)
{
    // Lossy links at a rate low enough that the retry budget always
    // wins: the run completes, reads stay functionally clean, and the
    // recovery work shows up as latency (retransmitted flits traverse
    // the fabric again).
    const SystemConfig clean = faultCfg(FaultKind::None, 0.0);
    const SystemConfig lossy = faultCfg(FaultKind::Links, 2e-3);

    const RunResult rc = runBenchmark("radix", clean, 0.05);
    const RunResult rl = runBenchmark("radix", lossy, 0.05);

    EXPECT_GT(rl.stats.faults.retransmits, 0u);
    EXPECT_EQ(rl.stats.faults.silentCorruptions, 0u);
    EXPECT_EQ(rl.functionalErrors, 0u);
    // Every retransmit re-traverses the route: strictly more flit-hops
    // than the fault-free run, and no faster completion.
    EXPECT_GT(rl.stats.network.flitHops, rc.stats.network.flitHops);
    EXPECT_GE(rl.completionTime, rc.completionTime);
    // The fault-free run's counters stay all-zero (FaultPlan none
    // never constructs an injector).
    EXPECT_FALSE(rc.stats.faults.any());
}

TEST(FaultSystem, ScheduleDeterministicAcrossRepeats)
{
    const SystemConfig cfg = faultCfg(FaultKind::Storm, 3e-6);
    const RunResult a = runBenchmark("barnes", cfg, 0.05);
    const RunResult b = runBenchmark("barnes", cfg, 0.05);
    EXPECT_EQ(statsSignature(a.stats), statsSignature(b.stats));
    EXPECT_EQ(a.stats.faults.retransmits, b.stats.faults.retransmits);
    EXPECT_EQ(a.stats.faults.softErrors, b.stats.faults.softErrors);
}

TEST(FaultSystem, WatchdogAbortsLongRuns)
{
    SystemConfig cfg = faultCfg(FaultKind::None, 0.0);
    try {
        runBenchmark("radix", cfg, 1.0, /*timeout_ms=*/1e-4);
        FAIL() << "watchdog never fired";
    } catch (const RunAbort &a) {
        EXPECT_EQ(a.kind(), AbortKind::Timeout);
        EXPECT_STREQ(a.tag(), "timeout");
    }
}

TEST(FaultSystem, HugeWatchdogBudgetSaturates)
{
    // 1e300 ms (or infinity) overflows the clock if added naively and
    // fires at once; it must instead mean "never fires".
    const SystemConfig cfg = faultCfg(FaultKind::None, 0.0);
    const RunResult ref = runBenchmark("radix", cfg, 0.02);
    for (const double ms :
         {1e300, std::numeric_limits<double>::infinity()}) {
        const RunResult r = runBenchmark("radix", cfg, 0.02, ms);
        EXPECT_GT(r.completionTime, 0u) << ms;
        EXPECT_EQ(r.completionTime, ref.completionTime) << ms;
    }
}

} // namespace
} // namespace lacc
