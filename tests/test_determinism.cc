/**
 * @file
 * Golden-hash determinism regression (guards protocol refactors).
 *
 * Runs one small mixed workload (all six archetypes + locks +
 * barriers + ifetch walker) per classifier variant and compares the
 * integer-field digest of the resulting SystemStats against committed
 * golden values. The digest (system/report.hh statsSignature) covers
 * every counter, clock, and histogram the simulator produces, so any
 * behavioral drift in the coherence engine — intended or not — shows
 * up here before it shows up in the paper figures.
 *
 * If a change is *meant* to alter protocol behavior, re-run this
 * binary and update the goldens below with the printed values.
 *
 * ACKwise_1 goldens pin the overflow-broadcast path, which none of the
 * default-config goldens reaches, and a cross-check requires the
 * full-map directory to digest identically wherever ACKwise never
 * broadcasts (the two differ only in that path).
 *
 * A second group re-runs a grid through the harness sweep runner
 * serially and with 4 worker threads and requires bit-identical
 * digests (the `--jobs 4` determinism contract of lacc_bench).
 */

#include <gtest/gtest.h>

#include "harness/registry.hh"
#include "harness/runner.hh"
#include "net/factory.hh"
#include "system/experiment.hh"
#include "system/multicore.hh"
#include "system/report.hh"
#include "workload/archetypes.hh"

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

/** Small mixed workload touching every archetype and sync primitive. */
SyntheticSpec
mixedSpec()
{
    SyntheticSpec s;
    s.name = "determinism-mix";
    s.numCores = 8;
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

/** Stats digest of one run plus the broadcasts it sent. */
struct RunDigest
{
    std::uint64_t signature;
    std::uint64_t broadcasts;
};

/** Run the mixed workload, sized to @p cfg's core count. */
RunDigest
runDigest(const SystemConfig &cfg)
{
    SyntheticSpec spec = mixedSpec();
    spec.numCores = cfg.numCores;
    SyntheticWorkload wl(spec, cfg);
    Multicore m(cfg);
    const SystemStats &stats = m.run(wl);
    EXPECT_EQ(m.functionalErrors(), 0u);
    return {statsSignature(stats), stats.protocol.broadcastInvals};
}

std::uint64_t
signatureFor(const SystemConfig &cfg)
{
    return runDigest(cfg).signature;
}

std::uint64_t
runSignature(ClassifierKind k)
{
    return signatureFor(cfg8(k));
}

struct Golden
{
    ClassifierKind kind;
    const char *name;
    std::uint64_t signature;
};

// Golden digests of the seed behavior. Regenerate by running this
// test and copying the printed "actual" values.
const Golden kGoldens[] = {
    {ClassifierKind::Complete, "Complete", 0x12975edbf2f6aa50ULL},
    {ClassifierKind::Limited, "Limited", 0x4a9d58c62567b5f4ULL},
    {ClassifierKind::Timestamp, "Timestamp", 0xa5fd7979994d925aULL},
    {ClassifierKind::AlwaysPrivate, "AlwaysPrivate",
     0xffa1b2765227b05eULL},
};

TEST(Determinism, GoldenHashPerClassifierVariant)
{
    for (const auto &g : kGoldens) {
        const std::uint64_t sig = runSignature(g.kind);
        EXPECT_EQ(sig, g.signature)
            << g.name << " stats signature drifted; actual 0x"
            << std::hex << sig
            << " — protocol behavior changed (update the golden only"
               " if the change is intentional)";
    }
}

TEST(Determinism, RepeatedRunsAreBitIdentical)
{
    EXPECT_EQ(runSignature(ClassifierKind::Limited),
              runSignature(ClassifierKind::Limited));
}

// Golden digests per interconnect topology (Limited classifier).
// The "mesh" entry must match the Limited entry above: the default
// fabric is pinned to the pre-NetworkModel seed behavior, and the
// other fabrics are pinned so topology-model drift is as loud as
// protocol drift. Regenerate like the classifier goldens.
const Golden kNetworkGoldens[] = {
    {ClassifierKind::Limited, "mesh", 0x4a9d58c62567b5f4ULL},
    {ClassifierKind::Limited, "torus", 0xafe9d14444e7f751ULL},
    {ClassifierKind::Limited, "ring", 0xfa665e0a792f121dULL},
    {ClassifierKind::Limited, "xbar", 0x5e9137e28be7ecb7ULL},
};

TEST(Determinism, GoldenHashPerNetworkTopology)
{
    for (const auto &g : kNetworkGoldens) {
        SystemConfig cfg = cfg8(g.kind);
        applyNetworkName(cfg, g.name);
        const std::uint64_t sig = signatureFor(cfg);
        EXPECT_EQ(sig, g.signature)
            << g.name << " stats signature drifted; actual 0x"
            << std::hex << sig
            << " — network-model behavior changed (update the golden"
               " only if the change is intentional)";
    }
}

// 64-core full-machine goldens, one per topology (Limited
// classifier, default 8-wide mesh dimensions). These pin the paper-
// scale configuration the figures run at; the sharded execution
// engine (system/sharded.hh) makes the suite cheap enough to keep in
// tier 1, and each golden is checked under it too (--sim-threads 4
// must be bit-identical to serial).
const Golden kNetworkGoldens64[] = {
    {ClassifierKind::Limited, "mesh", 0xd6a0b30411599c9eULL},
    {ClassifierKind::Limited, "torus", 0x1bb3bc2cef6d5e3cULL},
    {ClassifierKind::Limited, "ring", 0x8d1941334706d3d9ULL},
    {ClassifierKind::Limited, "xbar", 0x4be36b36d2539cf5ULL},
};

SystemConfig
cfg64(const char *network)
{
    SystemConfig cfg; // defaults: 64 cores, 8-wide mesh
    cfg.classifierKind = ClassifierKind::Limited;
    applyNetworkName(cfg, network);
    return cfg;
}

std::uint64_t
signature64(const char *network, std::uint32_t sim_threads)
{
    SystemConfig cfg = cfg64(network);
    if (sim_threads > 1) {
        cfg.engineKind = EngineKind::Sharded;
        cfg.simThreads = sim_threads;
    }
    return signatureFor(cfg);
}

TEST(Determinism, GoldenHash64CoresPerNetworkTopology)
{
    for (const auto &g : kNetworkGoldens64) {
        const std::uint64_t serial = signature64(g.name, 1);
        EXPECT_EQ(serial, g.signature)
            << "64-core " << g.name
            << " stats signature drifted; actual 0x" << std::hex
            << serial
            << " — update the golden only if the change is"
               " intentional";
        EXPECT_EQ(signature64(g.name, 4), serial)
            << "64-core " << g.name
            << ": sharded engine diverges from serial";
    }
}

// ACKwise_1 goldens (Limited classifier, 8 cores): one pointer per
// entry, so every second sharer overflows the list and the next write
// broadcasts its invalidation (§3.1). None of the goldens above sends
// a single broadcast; these pin the overflow path.
const Golden kAckwise1Goldens[] = {
    {ClassifierKind::Limited, "mesh", 0x4288e0f641e70545ULL},
    {ClassifierKind::Limited, "xbar", 0xaacdea687524a674ULL},
};

TEST(Determinism, GoldenHashAckwise1Broadcast)
{
    for (const auto &g : kAckwise1Goldens) {
        SystemConfig cfg = cfg8(g.kind);
        cfg.ackwisePointers = 1;
        applyNetworkName(cfg, g.name);
        const RunDigest d = runDigest(cfg);
        EXPECT_EQ(d.signature, g.signature)
            << "ACKwise_1 " << g.name
            << " stats signature drifted; actual 0x" << std::hex
            << d.signature
            << " — update the golden only if the change is"
               " intentional";
        EXPECT_GT(d.broadcasts, 0u)
            << "ACKwise_1 " << g.name << " sent no broadcast";
    }
}

TEST(Determinism, FullMapMatchesAckwiseWithoutBroadcasts)
{
    // ACKwise and full-map differ only once a sharer list overflows:
    // until then both track exact identities and unicast every
    // invalidation. Every golden config above that sends no
    // broadcast must therefore digest identically under fullmap.
    std::vector<SystemConfig> cfgs;
    for (const auto &g : kGoldens)
        cfgs.push_back(cfg8(g.kind));
    for (const auto &g : kNetworkGoldens) {
        cfgs.push_back(cfg8(g.kind));
        applyNetworkName(cfgs.back(), g.name);
    }
    for (const auto &g : kNetworkGoldens64)
        cfgs.push_back(cfg64(g.name));

    std::size_t compared = 0;
    for (const SystemConfig &ack : cfgs) {
        ASSERT_EQ(ack.directoryKind, DirectoryKind::Ackwise);
        const RunDigest a = runDigest(ack);
        if (a.broadcasts != 0)
            continue;
        SystemConfig full = ack;
        full.directoryKind = DirectoryKind::FullMap;
        EXPECT_EQ(runDigest(full).signature, a.signature)
            << ack.summary();
        ++compared;
    }
    EXPECT_GT(compared, 0u);
}

TEST(Determinism, TopologiesProduceDistinctTraffic)
{
    // The fabrics must actually differ: identical digests would mean
    // a factory wiring bug silently running everything on one model.
    SystemConfig mesh = cfg8(ClassifierKind::Limited);
    SystemConfig ring = mesh, xbar = mesh;
    applyNetworkName(ring, "ring");
    applyNetworkName(xbar, "xbar");
    const auto s_mesh = signatureFor(mesh);
    EXPECT_NE(s_mesh, signatureFor(ring));
    EXPECT_NE(s_mesh, signatureFor(xbar));
}

TEST(Determinism, SweepRunnerSerialEqualsJobs4)
{
    std::vector<harness::Job> jobs;
    for (const auto &g : kGoldens) {
        SystemConfig cfg = defaultConfig();
        cfg.classifierKind = g.kind;
        jobs.push_back({"radix", cfg, std::string("det ") + g.name});
    }

    harness::SweepOptions serial;
    serial.jobs = 1;
    serial.opScale = 0.02;
    serial.progress = false;
    harness::SweepOptions parallel = serial;
    parallel.jobs = 4;

    const auto rs = harness::runSweep(jobs, serial);
    const auto rp = harness::runSweep(jobs, parallel);
    ASSERT_EQ(rs.size(), jobs.size());
    ASSERT_EQ(rp.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        EXPECT_EQ(statsSignature(rs[i].result.stats),
                  statsSignature(rp[i].result.stats))
            << jobs[i].label;
        EXPECT_EQ(rs[i].result.completionTime,
                  rp[i].result.completionTime)
            << jobs[i].label;
    }
}

} // namespace
} // namespace lacc
