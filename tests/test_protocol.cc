/**
 * @file
 * Protocol-level tests: scripted access sequences through the full
 * Multicore engine validating the paper's protocol operation (§3.2):
 * grants, invalidations, upgrades, synchronous write-backs, remote
 * word accesses, promotions/demotions, ACKwise broadcast overflow,
 * miss-type classification, and R-NUCA re-homing.
 */

#include <gtest/gtest.h>

#include "net/mesh.hh"
#include "system/multicore.hh"
#include "verify/invariants.hh"
#include "workload/trace_file.hh"

namespace lacc {
namespace {

/** Small 4-core system configuration for directed tests. */
SystemConfig
smallCfg()
{
    SystemConfig c;
    c.numCores = 4;
    c.meshWidth = 2;
    c.clusterSize = 2;
    c.numMemControllers = 2;
    c.l1iSizeKB = 1;  // 4 sets x 4 ways
    c.l1iAssoc = 4;
    c.l1dSizeKB = 2;  // 8 sets x 4 ways
    c.l1dAssoc = 4;
    c.l2SizeKB = 16;  // 32 sets x 8 ways
    c.l2Assoc = 8;
    c.pct = 4;
    c.ratMax = 16;
    c.nRatLevels = 2;
    c.classifierK = 3;
    return c;
}

SystemConfig
baselineCfg()
{
    auto c = smallCfg();
    c.classifierKind = ClassifierKind::AlwaysPrivate;
    return c;
}

/** Two addresses on one page so they share an R-NUCA class. */
constexpr Addr kA = Addr{1} << 33;
constexpr Addr kB = (Addr{1} << 33) + 64;

TEST(Protocol, ColdReadGrantsExclusive)
{
    Multicore m(baselineCfg());
    m.testAccess(0, kA, false);
    const auto e = m.tile(0).l1d.find(kA >> 6);
    ASSERT_TRUE(e);
    EXPECT_EQ(e.meta().state, L1State::Exclusive);
    EXPECT_EQ(e.meta().privateUtil, 1u);
    EXPECT_EQ(m.stats().protocol.privateReadGrants, 1u);
    EXPECT_EQ(m.stats().protocol.dramFetches, 1u);
    EXPECT_EQ(m.stats().perCore.size(), 4u);
    // Miss classified cold.
    EXPECT_EQ(m.tile(0).stats.misses.get(MissType::Cold), 1u);
}

TEST(Protocol, SecondReadHitsAndCountsUtilization)
{
    Multicore m(baselineCfg());
    m.testAccess(0, kA, false);
    const Cycle t1 = m.tile(0).now;
    m.testAccess(0, kA, false);
    const Cycle t2 = m.tile(0).now;
    EXPECT_EQ(t2 - t1, 1u); // L1 hit latency
    const auto e = m.tile(0).l1d.find(kA >> 6);
    EXPECT_EQ(e.meta().privateUtil, 2u);
    EXPECT_EQ(m.tile(0).stats.l1d.misses(), 1u);
}

TEST(Protocol, WriteHitOnExclusiveSilentlyUpgrades)
{
    Multicore m(baselineCfg());
    m.testAccess(0, kA, false);
    m.testAccess(0, kA, true); // E -> M without a directory trip
    const auto e = m.tile(0).l1d.find(kA >> 6);
    EXPECT_EQ(e.meta().state, L1State::Modified);
    EXPECT_EQ(m.stats().protocol.upgradeGrants, 0u);
    EXPECT_EQ(m.tile(0).stats.l1d.misses(), 1u);
}

TEST(Protocol, PrivatePageHomesAtFirstToucher)
{
    Multicore m(baselineCfg());
    m.testAccess(2, kA, false);
    // Page private to core 2: the line lives in core 2's L2 slice.
    EXPECT_TRUE(m.tile(2).l2.find(kA >> 6));
    EXPECT_FALSE(m.tile(0).l2.find(kA >> 6));
}

TEST(Protocol, SecondCoreRehomesPage)
{
    Multicore m(baselineCfg());
    m.testAccess(2, kA, false);
    EXPECT_TRUE(m.tile(2).l2.find(kA >> 6));
    m.testAccess(1, kA, false);
    // Page now shared: old copy flushed from core 2's slice and the
    // line re-fetched at its hash home.
    EXPECT_GE(m.stats().protocol.rehomeFlushes, 1u);
    EXPECT_EQ(m.pageTable().lookup(kA >> 12)->cls,
              PageClass::SharedData);
    const CoreId home = m.placement().sharedHome(kA >> 6);
    EXPECT_TRUE(m.tile(home).l2.find(kA >> 6));
}

TEST(Protocol, TwoReadersShareLine)
{
    Multicore m(baselineCfg());
    m.testAccess(0, kA, false);
    m.testAccess(1, kA, false);
    m.testAccess(0, kA, false); // re-fetch after rehome flush
    const auto e0 = m.tile(0).l1d.find(kA >> 6);
    const auto e1 = m.tile(1).l1d.find(kA >> 6);
    ASSERT_TRUE(e0);
    ASSERT_TRUE(e1);
    EXPECT_EQ(e1.meta().state, L1State::Shared);
    EXPECT_EQ(e0.meta().state, L1State::Shared);
    const CoreId home = m.placement().sharedHome(kA >> 6);
    const auto l2e = m.tile(home).l2.find(kA >> 6);
    ASSERT_TRUE(l2e);
    EXPECT_EQ(l2e.meta().dstate, DirState::Shared);
    EXPECT_EQ(l2e.meta().holders.size(), 2u);
    EXPECT_EQ(l2e.meta().sharers.count(), 2u);
}

TEST(Protocol, WriteInvalidatesReaders)
{
    Multicore m(baselineCfg());
    m.testAccess(0, kA, false);
    m.testAccess(1, kA, false);
    m.testAccess(0, kA, false);
    const auto inval_before = m.stats().protocol.invalidationsSent;
    m.testAccess(2, kA, true);
    EXPECT_EQ(m.stats().protocol.invalidationsSent, inval_before + 2);
    EXPECT_FALSE(m.tile(0).l1d.find(kA >> 6));
    EXPECT_FALSE(m.tile(1).l1d.find(kA >> 6));
    const auto e2 = m.tile(2).l1d.find(kA >> 6);
    ASSERT_TRUE(e2);
    EXPECT_EQ(e2.meta().state, L1State::Modified);
    // Readers' next misses are sharing misses.
    m.testAccess(0, kA, false);
    EXPECT_EQ(m.tile(0).stats.misses.get(MissType::Sharing), 1u);
}

TEST(Protocol, ReadAfterWriteSyncWriteback)
{
    Multicore m(baselineCfg());
    m.testAccess(0, kA, false);
    m.testAccess(1, kA, true); // M at core 1 (after rehome)
    const auto wb_before = m.stats().protocol.syncWritebacks;
    m.testAccess(3, kA, false);
    EXPECT_GE(m.stats().protocol.syncWritebacks, wb_before + 1);
    // Owner downgraded to S, both share now.
    const auto e1 = m.tile(1).l1d.find(kA >> 6);
    ASSERT_TRUE(e1);
    EXPECT_EQ(e1.meta().state, L1State::Shared);
    const CoreId home = m.placement().sharedHome(kA >> 6);
    EXPECT_EQ(m.tile(home).l2.find(kA >> 6).meta().dstate,
              DirState::Shared);
}

TEST(Protocol, UpgradeMissKeepsLineAndData)
{
    Multicore m(baselineCfg());
    m.testAccess(0, kA, false);
    m.testAccess(1, kA, false); // rehome; both will share
    m.testAccess(0, kA, false);
    // Core 0 holds S; its write is an upgrade miss.
    m.testAccess(0, kA, true);
    EXPECT_EQ(m.stats().protocol.upgradeGrants, 1u);
    EXPECT_EQ(m.tile(0).stats.misses.get(MissType::Upgrade), 1u);
    const auto e0 = m.tile(0).l1d.find(kA >> 6);
    ASSERT_TRUE(e0);
    EXPECT_EQ(e0.meta().state, L1State::Modified);
    // The other sharer was invalidated.
    EXPECT_FALSE(m.tile(1).l1d.find(kA >> 6));
}

TEST(Protocol, EvictionNotifiesDirectoryAndClassifies)
{
    auto cfg = baselineCfg();
    Multicore m(cfg);
    // Fill one L1-D set (4 ways) plus one more line mapping to it.
    // L1-D has 8 sets; lines with the same (line % 8) collide.
    const Addr base = Addr{1} << 33;
    for (int i = 0; i < 5; ++i)
        m.testAccess(0, base + static_cast<Addr>(i) * 8 * 64, false);
    EXPECT_EQ(m.tile(0).stats.l1d.evictions, 1u);
    // The victim (first line) is gone and the directory no longer
    // lists core 0 as a holder.
    const LineAddr victim = base >> 6;
    EXPECT_FALSE(m.tile(0).l1d.find(victim));
    const auto l2e = m.tile(0).l2.find(victim); // private page, home 0
    ASSERT_TRUE(l2e);
    EXPECT_TRUE(l2e.meta().holders.empty());
    EXPECT_EQ(l2e.meta().dstate, DirState::Uncached);
    // Re-access classifies as capacity.
    m.testAccess(0, base, false);
    EXPECT_EQ(m.tile(0).stats.misses.get(MissType::Capacity), 1u);
}

TEST(Protocol, DirtyEvictionWritesBack)
{
    Multicore m(baselineCfg());
    const Addr base = Addr{1} << 33;
    m.testAccess(0, base, true); // M copy
    for (int i = 1; i < 5; ++i)
        m.testAccess(0, base + static_cast<Addr>(i) * 8 * 64, false);
    EXPECT_EQ(m.stats().protocol.dirtyWritebacks, 1u);
    const auto l2e = m.tile(0).l2.find(base >> 6);
    ASSERT_TRUE(l2e);
    EXPECT_TRUE(l2e.meta().dirty);
    // The write's value survived in the L2 copy.
    m.setFunctionalChecks(true);
    m.testAccess(0, base, false);
    EXPECT_EQ(m.functionalErrors(), 0u);
}

// ---------------------------------------------------------------------
// Adaptive behavior (§3.2-3.3)
// ---------------------------------------------------------------------

/**
 * Establish kA's page as shared (so the R-NUCA re-home flush is
 * behind us), leave core 0 holding an S copy with utilization 1, then
 * have core 1 write: core 0 is invalidated with low utilization and
 * demoted to a remote sharer.
 */
void
establishSharedAndDemoteCore0(Multicore &m)
{
    m.testAccess(0, kA, false); // private page at slice 0
    m.testAccess(1, kA, false); // re-home to the hash slice
    m.testAccess(0, kA, false); // core 0 S copy, util 1
    m.testAccess(1, kA, true);  // upgrade: invalidates core 0 -> demote
}

TEST(Adaptive, LowUtilizationInvalidationDemotes)
{
    auto cfg = smallCfg();
    cfg.classifierKind = ClassifierKind::Complete;
    Multicore m(cfg);
    establishSharedAndDemoteCore0(m);
    EXPECT_GE(m.stats().protocol.demotions, 1u);

    // Core 0 is now a remote sharer: its read is a word access.
    const auto rr_before = m.stats().protocol.remoteReads;
    m.testAccess(0, kA, false);
    EXPECT_EQ(m.stats().protocol.remoteReads, rr_before + 1);
    EXPECT_FALSE(m.tile(0).l1d.find(kA >> 6)) << "no L1 copy";
    // Subsequent miss classified as a word miss.
    m.testAccess(0, kA, false);
    EXPECT_GE(m.tile(0).stats.misses.get(MissType::Word), 1u);
}

TEST(Adaptive, HighUtilizationSurvivesInvalidation)
{
    auto cfg = smallCfg();
    cfg.classifierKind = ClassifierKind::Complete;
    Multicore m(cfg);
    m.testAccess(0, kA, false); // private page
    m.testAccess(1, kA, false); // re-home
    for (int i = 0; i < 5; ++i)
        m.testAccess(0, kA, false); // fill + 4 hits: util 5 >= PCT
    m.testAccess(1, kA, true);
    EXPECT_EQ(m.stats().protocol.demotions, 0u);
    // Core 0 remains a private sharer: next read refetches the line.
    m.testAccess(0, kA, false);
    EXPECT_TRUE(m.tile(0).l1d.find(kA >> 6));
}

TEST(Adaptive, RemoteSharerPromotedAfterPctAccesses)
{
    auto cfg = smallCfg();
    cfg.classifierKind = ClassifierKind::Complete;
    Multicore m(cfg);
    establishSharedAndDemoteCore0(m);
    // Remote reads; L1 set has invalid ways so the short-cut promotes
    // at PCT = 4 remote accesses.
    for (int i = 0; i < 3; ++i) {
        m.testAccess(0, kA, false);
        EXPECT_FALSE(m.tile(0).l1d.find(kA >> 6));
    }
    m.testAccess(0, kA, false); // 4th: promoted, line granted
    EXPECT_EQ(m.stats().protocol.promotions, 1u);
    EXPECT_TRUE(m.tile(0).l1d.find(kA >> 6));
}

TEST(Adaptive, RemoteWriteStoresWordAtL2)
{
    auto cfg = smallCfg();
    cfg.classifierKind = ClassifierKind::Complete;
    Multicore m(cfg);
    m.setFunctionalChecks(true);
    establishSharedAndDemoteCore0(m); // core 1 owns M afterwards
    m.testAccess(0, kA, true); // remote word write by core 0
    EXPECT_GE(m.stats().protocol.remoteWrites, 1u);
    EXPECT_FALSE(m.tile(0).l1d.find(kA >> 6));
    // Core 1's M copy was invalidated by the write.
    EXPECT_FALSE(m.tile(1).l1d.find(kA >> 6));
    // A later read sees the remote write's value.
    m.testAccess(2, kA, false);
    EXPECT_EQ(m.functionalErrors(), 0u);
}

TEST(Adaptive, WriteResetsOtherRemoteSharersUtilization)
{
    auto cfg = smallCfg();
    cfg.classifierKind = ClassifierKind::Complete;
    Multicore m(cfg);
    establishSharedAndDemoteCore0(m);
    m.testAccess(0, kA, false); // remote util(0) = 1
    m.testAccess(0, kA, false); // remote util(0) = 2
    m.testAccess(1, kA, true);  // write by core 1 resets core 0's util
    // Core 0 needs 4 fresh accesses again.
    for (int i = 0; i < 3; ++i) {
        m.testAccess(0, kA, false);
        EXPECT_FALSE(m.tile(0).l1d.find(kA >> 6)) << i;
    }
    m.testAccess(0, kA, false);
    EXPECT_TRUE(m.tile(0).l1d.find(kA >> 6));
}

TEST(Adaptive, OneWayNeverRepromotes)
{
    auto cfg = smallCfg();
    cfg.classifierKind = ClassifierKind::Complete;
    cfg.protocolKind = ProtocolKind::AdaptOneWay;
    Multicore m(cfg);
    establishSharedAndDemoteCore0(m);
    for (int i = 0; i < 40; ++i)
        m.testAccess(0, kA, false);
    EXPECT_EQ(m.stats().protocol.promotions, 0u);
    EXPECT_FALSE(m.tile(0).l1d.find(kA >> 6));
}

TEST(Adaptive, PromotedLineClassifiedWithEpochUtilization)
{
    // After promotion, remote utilization counts toward the removal
    // classification (§3.2), so an early invalidation does not demote.
    auto cfg = smallCfg();
    cfg.classifierKind = ClassifierKind::Complete;
    Multicore m(cfg);
    establishSharedAndDemoteCore0(m);
    for (int i = 0; i < 4; ++i)
        m.testAccess(0, kA, false); // promote on the 4th
    EXPECT_EQ(m.stats().protocol.promotions, 1u);
    // Invalidate immediately: private util is 1, but remote util 4
    // counts: stays private.
    const auto demotions = m.stats().protocol.demotions;
    m.testAccess(1, kA, true);
    EXPECT_EQ(m.stats().protocol.demotions, demotions);
}

// ---------------------------------------------------------------------
// ACKwise overflow (§3.1)
// ---------------------------------------------------------------------

TEST(Ackwise, OverflowBroadcastsInvalidation)
{
    auto cfg = baselineCfg();
    cfg.ackwisePointers = 2; // force overflow with 3 sharers
    Multicore m(cfg);
    m.testAccess(0, kA, false);
    m.testAccess(1, kA, false);
    m.testAccess(0, kA, false);
    m.testAccess(2, kA, false);
    const CoreId home = m.placement().sharedHome(kA >> 6);
    const auto l2e = m.tile(home).l2.find(kA >> 6);
    ASSERT_TRUE(l2e);
    EXPECT_TRUE(l2e.meta().sharers.overflowed());
    EXPECT_EQ(l2e.meta().sharers.count(), 3u);

    m.testAccess(3, kA, true);
    EXPECT_EQ(m.stats().protocol.broadcastInvals, 1u);
    EXPECT_FALSE(l2e.meta().sharers.overflowed()) << "reset after inval";
    EXPECT_EQ(l2e.meta().sharers.count(), 1u);
    EXPECT_EQ(l2e.meta().holders.size(), 1u);
    EXPECT_EQ(l2e.meta().holders[0], 3);
}

TEST(Ackwise, FullMapNeverBroadcasts)
{
    auto cfg = baselineCfg();
    cfg.directoryKind = DirectoryKind::FullMap;
    Multicore m(cfg);
    m.testAccess(0, kA, false);
    m.testAccess(1, kA, false);
    m.testAccess(0, kA, false);
    m.testAccess(2, kA, false);
    const auto before = m.stats().protocol.invalidationsSent;
    m.testAccess(3, kA, true);
    EXPECT_EQ(m.stats().protocol.broadcastInvals, 0u);
    EXPECT_EQ(m.stats().protocol.invalidationsSent, before + 3);
}

// ---------------------------------------------------------------------
// L2 / inclusion / RAT escalation through the full engine
// ---------------------------------------------------------------------

TEST(Protocol, L2EvictionBackInvalidatesL1)
{
    // Shrink the L2 so fills evict lines that still have L1 holders.
    auto cfg = baselineCfg();
    cfg.l2SizeKB = 2; // 4 sets x 8 ways = 32 lines per slice
    Multicore m(cfg);
    const Addr base = Addr{1} << 33;
    // Touch far more private lines than the slice holds.
    for (int i = 0; i < 64; ++i)
        m.testAccess(0, base + static_cast<Addr>(i) * 64, false);
    EXPECT_GT(m.stats().protocol.l2Evictions, 0u);
    // Inclusion: no L1 line may exist without its L2 home entry.
    std::uint64_t orphans = 0;
    m.tile(0).l1d.forEach([&](L1Cache::Entry e) {
        if (e.valid() && !m.tile(0).l2.find(e.tag()))
            ++orphans;
    });
    EXPECT_EQ(orphans, 0u);
}

TEST(Protocol, RatEscalatesThroughEngine)
{
    // A line repeatedly evicted with low utilization raises its RAT
    // level, making re-promotion need RATmax accesses when the set is
    // under pressure.
    auto cfg = smallCfg();
    cfg.classifierKind = ClassifierKind::Complete;
    Multicore m(cfg);
    const Addr target = Addr{1} << 33;
    // Pin the target's L1 set full with other hot lines (same set:
    // stride = sets * lineSize = 8 * 64).
    auto hot = [&](int i) {
        return target + 64 * 8 * static_cast<Addr>(i + 1);
    };

    // Fill the set: target + 4 hot lines (4-way set -> evicts target).
    m.testAccess(0, target, false);
    for (int i = 0; i < 4; ++i)
        m.testAccess(0, hot(i), false);
    // Target was evicted with util 1 -> demoted with RAT level 1.
    const CoreId home = 0; // private page of core 0
    const auto entry = m.tile(home).l2.find(target >> 6);
    ASSERT_TRUE(entry);
    const auto *rec = m.classifier().peek(entry.records(), 0);
    ASSERT_NE(rec, nullptr);
    EXPECT_EQ(rec->mode, Mode::Remote);
    EXPECT_EQ(rec->ratLevel, 1u);

    // Keep the set hot so there is no invalid way: promotion now
    // needs RATmax = 16 remote accesses, not PCT = 4.
    for (int round = 0; round < 15; ++round) {
        for (int i = 0; i < 4; ++i)
            m.testAccess(0, hot(i), false);
        m.testAccess(0, target, false);
        ASSERT_FALSE(m.tile(0).l1d.find(target >> 6))
            << "promoted too early at round " << round;
    }
    for (int i = 0; i < 4; ++i)
        m.testAccess(0, hot(i), false);
    m.testAccess(0, target, false); // 16th remote access: promoted
    EXPECT_TRUE(m.tile(0).l1d.find(target >> 6));
}

TEST(Protocol, InstructionLinesReplicatePerCluster)
{
    // Cores in different clusters fetch the same instruction line;
    // R-NUCA replicates it at one slice per cluster (no coherence
    // traffic between the replicas: instructions are read-only).
    auto cfg = baselineCfg(); // 4 cores, clusters of 2
    Multicore m(cfg);
    const Addr code = (Addr{0xC0} << 36) + 0x40;
    std::vector<std::vector<MemOp>> streams(4);
    streams[0] = {MemOp::ifetch(code)};
    streams[2] = {MemOp::ifetch(code)}; // different cluster
    streams[1] = {MemOp::compute(1)};
    streams[3] = {MemOp::compute(1)};
    TraceWorkload wl("ifetch", streams, 0);
    const auto &st = m.run(wl);

    // The page is classified Instruction and the line exists in two
    // distinct slices (one per cluster), each fetched from DRAM.
    EXPECT_EQ(m.pageTable().lookup(code >> 12)->cls,
              PageClass::Instruction);
    std::uint32_t replicas = 0;
    for (CoreId h = 0; h < 4; ++h)
        replicas += static_cast<bool>(m.tile(h).l2.find(code >> 6));
    EXPECT_EQ(replicas, 2u);
    EXPECT_EQ(st.protocol.invalidationsSent, 0u);
    // Both fetchers hold L1-I copies.
    EXPECT_TRUE(m.tile(0).l1i.find(code >> 6));
    EXPECT_TRUE(m.tile(2).l1i.find(code >> 6));
}

// ---------------------------------------------------------------------
// Timing sanity
// ---------------------------------------------------------------------

TEST(Timing, RemoteReadCheaperThanGrantRoundtrip)
{
    // A word reply (2 flits) must beat a line reply (9 flits) for the
    // same path. Use a line whose hash home (line % 4 == 3) is
    // distant from the requesting core 0 so reply serialization shows.
    const Addr addr = (Addr{1} << 33) + 3 * 64;
    auto prelude = [&](Multicore &m) {
        m.testAccess(0, addr, false); // private page at slice 0
        m.testAccess(1, addr, false); // re-home to the hash slice (3)
        m.testAccess(0, addr, false); // core 0 S copy, util 1
        m.testAccess(1, addr, true);  // invalidate core 0; M at core 1
    };

    auto cfg = smallCfg();
    cfg.classifierKind = ClassifierKind::Complete;
    Multicore m(cfg);
    prelude(m); // demotes core 0 under the adaptive classifier

    Multicore base(baselineCfg());
    prelude(base); // baseline never demotes

    const Cycle t0 = m.tile(0).now;
    m.testAccess(0, addr, false); // remote word (with sync WB)
    const Cycle remote_latency = m.tile(0).now - t0;

    const Cycle b0 = base.tile(0).now;
    base.testAccess(0, addr, false); // full line grant (with sync WB)
    const Cycle grant_latency = base.tile(0).now - b0;

    EXPECT_LT(remote_latency, grant_latency);
}

TEST(Timing, SerializationAtDirectory)
{
    // Two cores hammer the same line; the second request waits for
    // the first transaction's busy window.
    Multicore m(baselineCfg());
    m.testAccess(0, kA, false);
    m.testAccess(1, kA, false);
    // Both issue at similar local times; at least one of them must
    // have accrued waiting cycles across this sequence of conflicting
    // transactions.
    m.testAccess(2, kA, true);
    m.testAccess(3, kA, true);
    const auto lat = m.stats().totalLatency();
    // stats() snapshot is from construction; recompute from tiles.
    std::uint64_t waiting = 0;
    for (CoreId c = 0; c < 4; ++c)
        waiting += m.tile(c).stats.latency.l2Waiting;
    (void)lat;
    EXPECT_GT(waiting, 0u);
}


// ---------------------------------------------------------------------------
// Protocol factory (protocol/factory.hh)
// ---------------------------------------------------------------------------

TEST(Factory, SelectsProtocolFromConfig)
{
    Multicore ack(baselineCfg());
    EXPECT_STREQ(ack.protocol().name(), "lacc");

    auto fm = baselineCfg();
    fm.directoryKind = DirectoryKind::FullMap;
    Multicore full(fm);
    EXPECT_STREQ(full.protocol().name(), "fullmap");
}

TEST(Factory, NameConfigRoundTrip)
{
    for (const auto &name : protocolNames()) {
        SystemConfig cfg = smallCfg();
        applyProtocolName(cfg, name);
        EXPECT_EQ(protocolNameFor(cfg), name);
        Multicore m(cfg);
        EXPECT_EQ(m.protocol().name(), name);
    }
}

TEST(Factory, UnknownProtocolNameIsFatal)
{
    SystemConfig cfg = smallCfg();
    EXPECT_EXIT(applyProtocolName(cfg, "mesi-2000"),
                testing::ExitedWithCode(1), "unknown protocol");
}


// ---------------------------------------------------------------------------
// Dual L1 copies: a line held in both L1-I and L1-D of one core
// (instruction line also read as data). The directory tracks one
// holder entry per core, so invalidations must kill both copies and
// evicting one copy must not untrack the other.
// ---------------------------------------------------------------------------

TEST(Protocol, WriteInvalidatesBothL1CopiesOfDualHolder)
{
    Multicore m(smallCfg()); // functional checks on
    std::vector<std::vector<MemOp>> streams(4);
    // Core 0 caches line kA in both L1s, then core 1 writes it; core
    // 0's re-reads must see fresh data (stale-copy corruption shows
    // up as functional errors).
    streams[0] = {MemOp::ifetch(kA), MemOp::read(kA),
                  MemOp::compute(2000), MemOp::ifetch(kA),
                  MemOp::read(kA)};
    streams[1] = {MemOp::compute(600), MemOp::write(kA)};
    TraceWorkload wl("dual-copy-inval", streams, 0);
    m.run(wl);
    EXPECT_EQ(m.functionalErrors(), 0u);
    // The write invalidated both of core 0's copies before its
    // re-reads refetched.
    EXPECT_GE(m.tile(0).stats.l1i.invalidationsRecv +
                  m.tile(0).stats.l1d.invalidationsRecv,
              2u);
    EXPECT_TRUE(verify::checkAll(m).empty());
}

TEST(Protocol, DataEvictionKeepsDualHolderTracked)
{
    Multicore m(smallCfg());
    std::vector<std::vector<MemOp>> streams(4);
    // Core 0 takes line kA into L1-I and L1-D, then evicts only the
    // L1-D copy by filling kA's set (l1d: 8 sets x 4 ways, so 4 more
    // lines at 8-set stride map to the same set).
    std::vector<MemOp> s0 = {MemOp::ifetch(kA), MemOp::read(kA)};
    for (int i = 1; i <= 4; ++i)
        s0.push_back(MemOp::read(kA + static_cast<Addr>(i) * 8 * 64));
    s0.push_back(MemOp::compute(4000));
    s0.push_back(MemOp::ifetch(kA)); // after core 1's write
    streams[0] = s0;
    streams[1] = {MemOp::compute(2500), MemOp::write(kA)};
    TraceWorkload wl("dual-copy-evict", streams, 0);
    m.run(wl);
    // The data copy really was evicted...
    EXPECT_GE(m.tile(0).stats.l1d.evictions, 1u);
    // ...but the holder entry survived, so core 1's write still
    // invalidated the remaining L1-I copy and no stale instruction
    // word was fetched.
    EXPECT_EQ(m.functionalErrors(), 0u);
    EXPECT_GE(m.tile(0).stats.l1i.invalidationsRecv, 1u);
    EXPECT_TRUE(verify::checkAll(m).empty());
}


TEST(Protocol, OwnerReadMergesOwnModifiedData)
{
    // Write-then-ifetch half of the dual-copy corner: core 0 holds
    // line kA Modified in L1-D (owner), then ifetch-misses on the
    // same line. The grant must merge the M data before filling L1-I
    // instead of serving the stale L2 copy.
    Multicore m(smallCfg());
    std::vector<std::vector<MemOp>> streams(4);
    streams[0] = {MemOp::write(kA), MemOp::ifetch(kA), MemOp::read(kA)};
    TraceWorkload wl("owner-read-merge", streams, 0);
    m.run(wl);
    EXPECT_EQ(m.functionalErrors(), 0u);
    EXPECT_TRUE(verify::checkAll(m).empty());
}

TEST(Protocol, WriteGrantDropsStaleOtherL1Copy)
{
    // A write grant to a dual-copy holder must kill the stale copy
    // in the other L1, or the next ifetch serves pre-store data.
    Multicore m(smallCfg());
    std::vector<std::vector<MemOp>> streams(4);
    streams[0] = {MemOp::ifetch(kA), MemOp::read(kA), MemOp::write(kA),
                  MemOp::ifetch(kA)};
    TraceWorkload wl("write-drops-other", streams, 0);
    m.run(wl);
    EXPECT_EQ(m.functionalErrors(), 0u);
    EXPECT_TRUE(verify::checkAll(m).empty());
}

// ---------------------------------------------------------------------------
// Message transport (protocol/messages.hh)
// ---------------------------------------------------------------------------

TEST(Messages, FlitsFollowPayloadClass)
{
    const SystemConfig cfg = smallCfg();
    EnergyModel e;
    MeshNetwork mesh(cfg, e);
    MessageTransport net(cfg, mesh);

    Message m{MsgKind::ShReq, 0, 1, MsgPayload::None};
    EXPECT_EQ(net.flitsOf(m), cfg.headerFlits);
    m.payload = MsgPayload::Word;
    EXPECT_EQ(net.flitsOf(m), cfg.headerFlits + cfg.wordFlits);
    m.kind = MsgKind::LineGrant;
    m.payload = MsgPayload::Line;
    EXPECT_EQ(net.flitsOf(m), cfg.headerFlits + cfg.lineFlits);

    const Cycle t = net.send(m, 0);
    EXPECT_EQ(m.flits, cfg.headerFlits + cfg.lineFlits);
    EXPECT_EQ(m.hops, mesh.hopCount(0, 1));
    EXPECT_EQ(t, mesh.idealLatency(0, 1, m.flits)); // empty mesh

    EXPECT_STREQ(msgKindName(MsgKind::ShReq), "ShReq");
    EXPECT_STREQ(msgKindName(MsgKind::InvalAck), "InvalAck");
    EXPECT_STREQ(msgKindName(MsgKind::DramWriteback), "DramWriteback");
}

} // namespace
} // namespace lacc
