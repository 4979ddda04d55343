/**
 * @file
 * Library micro-benchmarks (google-benchmark): hot paths of the
 * simulator substrate — cache lookups/fills, mesh routing, broadcast,
 * sharer-list updates, classifier decisions, whole L1-hit and
 * L1-miss transactions, and workload generation throughput.
 */

#include <memory>
#include <vector>

#include <benchmark/benchmark.h>

#include "cache/set_assoc.hh"
#include "core/classifier.hh"
#include "dram/dram.hh"
#include "core/limited_classifier.hh"
#include "protocol/core_vec.hh"
#include "protocol/sharer_list.hh"
#include "energy/model.hh"
#include "net/factory.hh"
#include "net/mesh.hh"
#include "sim/profiler.hh"
#include "system/multicore.hh"
#include "workload/suite.hh"

namespace {

using namespace lacc;

SystemConfig
microCfg()
{
    SystemConfig c;
    c.numCores = 64;
    return c;
}

void
BM_L1Lookup(benchmark::State &state)
{
    // SoA tag-store hit path: find() scans only the flat tag array.
    L1Cache c(128, 4, 8);
    for (LineAddr l = 0; l < 512; ++l) {
        auto e = c.victimFor(l);
        e.setValid(true);
        e.setTag(l);
    }
    LineAddr l = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(c.find(l));
        l = (l + 1) & 511;
    }
}
BENCHMARK(BM_L1Lookup);

void
BM_L1LookupMiss(benchmark::State &state)
{
    // SoA tag-store miss path: a full-way scan that never matches
    // (the common L1 outcome on cold/shared workloads).
    L1Cache c(128, 4, 8);
    for (LineAddr l = 0; l < 512; ++l) {
        auto e = c.victimFor(l);
        e.setValid(true);
        e.setTag(l);
    }
    LineAddr l = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(c.find(l + 4096)); // never resident
        l = (l + 1) & 511;
    }
}
BENCHMARK(BM_L1LookupMiss);

void
BM_L1VictimSelect(benchmark::State &state)
{
    // LRU victim scan over the flat lastAccess array (full sets).
    L1Cache c(128, 4, 8);
    for (LineAddr l = 0; l < 512; ++l) {
        auto e = c.victimFor(l);
        e.setValid(true);
        e.setTag(l);
        e.setLastAccess(l);
    }
    LineAddr l = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(c.victimFor(l));
        l = (l + 1) & 1023;
    }
}
BENCHMARK(BM_L1VictimSelect);

void
BM_L1FillWords(benchmark::State &state)
{
    // Arena line copy (the data movement of every private grant).
    L1Cache c(128, 4, 8);
    const std::uint64_t src[8] = {1, 2, 3, 4, 5, 6, 7, 8};
    LineAddr l = 0;
    for (auto _ : state) {
        auto e = c.victimFor(l);
        e.fillWords(src);
        benchmark::DoNotOptimize(e.words());
        l = (l + 1) & 1023;
    }
}
BENCHMARK(BM_L1FillWords);

void
BM_DramSlabWriteRead(benchmark::State &state)
{
    // DRAM slab arena steady state: write-back + fetch of a line set
    // that fits the slab (no per-line vector allocations).
    DramModel d(microCfg());
    std::uint64_t line[8] = {};
    LineAddr l = 0;
    for (auto _ : state) {
        line[0] = l;
        d.writeLine(l, line);
        d.readLine(l, line);
        benchmark::DoNotOptimize(line[0]);
        l = (l + 1) & 255;
    }
}
BENCHMARK(BM_DramSlabWriteRead);

void
BM_DramSlabColdRead(benchmark::State &state)
{
    // Untouched-line fetch: zero-fill path, no slab slot allocated.
    DramModel d(microCfg());
    std::uint64_t line[8];
    LineAddr l = 0;
    for (auto _ : state) {
        d.readLine(l, line);
        benchmark::DoNotOptimize(line[0]);
        ++l;
    }
}
BENCHMARK(BM_DramSlabColdRead);

void
BM_MeshUnicast(benchmark::State &state)
{
    EnergyModel e;
    MeshNetwork net(microCfg(), e);
    Cycle t = 0;
    CoreId dst = 1;
    for (auto _ : state) {
        benchmark::DoNotOptimize(net.unicast(0, dst, 9, t));
        dst = static_cast<CoreId>((dst + 7) % 64);
        t += 3;
    }
}
BENCHMARK(BM_MeshUnicast);

void
BM_MeshBroadcast(benchmark::State &state)
{
    EnergyModel e;
    MeshNetwork net(microCfg(), e);
    std::vector<Cycle> arrivals;
    Cycle t = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(net.broadcast(27, 1, t, arrivals));
        t += 10;
    }
}
BENCHMARK(BM_MeshBroadcast);

// ---------------------------------------------------------------------------
// Table-driven network hot paths, per topology (arg 0/1 = contention
// off/on), plus the hop-by-hop reference walkers for comparison: the
// table path must beat its reference twin on every topology.
// ---------------------------------------------------------------------------

void
BM_NetUnicast(benchmark::State &state, const char *topology)
{
    auto cfg = microCfg();
    cfg.modelContention = state.range(0) != 0;
    applyNetworkName(cfg, topology);
    EnergyModel e;
    const auto net = makeNetwork(cfg, e);
    Cycle t = 0;
    CoreId dst = 1;
    for (auto _ : state) {
        benchmark::DoNotOptimize(net->unicast(0, dst, 9, t));
        dst = static_cast<CoreId>((dst + 7) % 64);
        t += 3;
    }
}
BENCHMARK_CAPTURE(BM_NetUnicast, mesh, "mesh")->Arg(0)->Arg(1);
BENCHMARK_CAPTURE(BM_NetUnicast, torus, "torus")->Arg(0)->Arg(1);
BENCHMARK_CAPTURE(BM_NetUnicast, ring, "ring")->Arg(0)->Arg(1);
BENCHMARK_CAPTURE(BM_NetUnicast, xbar, "xbar")->Arg(0)->Arg(1);

void
BM_NetBroadcast(benchmark::State &state, const char *topology)
{
    auto cfg = microCfg();
    cfg.modelContention = state.range(0) != 0;
    applyNetworkName(cfg, topology);
    EnergyModel e;
    const auto net = makeNetwork(cfg, e);
    std::vector<Cycle> arrivals;
    Cycle t = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(net->broadcast(27, 1, t, arrivals));
        t += 10;
    }
}
BENCHMARK_CAPTURE(BM_NetBroadcast, mesh, "mesh")->Arg(0)->Arg(1);
BENCHMARK_CAPTURE(BM_NetBroadcast, torus, "torus")->Arg(0)->Arg(1);
BENCHMARK_CAPTURE(BM_NetBroadcast, ring, "ring")->Arg(0)->Arg(1);
BENCHMARK_CAPTURE(BM_NetBroadcast, xbar, "xbar")->Arg(0)->Arg(1);

void
BM_NetReferenceUnicast(benchmark::State &state, const char *topology)
{
    auto cfg = microCfg();
    cfg.modelContention = state.range(0) != 0;
    applyNetworkName(cfg, topology);
    EnergyModel e;
    const auto net = makeNetwork(cfg, e);
    Cycle t = 0;
    CoreId dst = 1;
    for (auto _ : state) {
        benchmark::DoNotOptimize(net->referenceUnicast(0, dst, 9, t));
        dst = static_cast<CoreId>((dst + 7) % 64);
        t += 3;
    }
}
BENCHMARK_CAPTURE(BM_NetReferenceUnicast, mesh, "mesh")->Arg(0)->Arg(1);
BENCHMARK_CAPTURE(BM_NetReferenceUnicast, torus, "torus")->Arg(0)->Arg(1);
BENCHMARK_CAPTURE(BM_NetReferenceUnicast, ring, "ring")->Arg(0)->Arg(1);
BENCHMARK_CAPTURE(BM_NetReferenceUnicast, xbar, "xbar")->Arg(0)->Arg(1);

void
BM_NetReferenceBroadcast(benchmark::State &state, const char *topology)
{
    auto cfg = microCfg();
    cfg.modelContention = state.range(0) != 0;
    applyNetworkName(cfg, topology);
    EnergyModel e;
    const auto net = makeNetwork(cfg, e);
    std::vector<Cycle> arrivals;
    Cycle t = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            net->referenceBroadcast(27, 1, t, arrivals));
        t += 10;
    }
}
BENCHMARK_CAPTURE(BM_NetReferenceBroadcast, mesh, "mesh")->Arg(0)->Arg(1);
BENCHMARK_CAPTURE(BM_NetReferenceBroadcast, torus, "torus")->Arg(0)->Arg(1);
BENCHMARK_CAPTURE(BM_NetReferenceBroadcast, ring, "ring")->Arg(0)->Arg(1);
BENCHMARK_CAPTURE(BM_NetReferenceBroadcast, xbar, "xbar")->Arg(0)->Arg(1);

void
BM_ProfilerScopeDisabled(benchmark::State &state)
{
    // Guard for the profiler's <=2%-when-disabled budget: a disabled
    // Scope must cost one relaxed load and a branch.
    prof::setEnabled(false);
    for (auto _ : state) {
        prof::Scope s(prof::Network);
        benchmark::DoNotOptimize(&s);
    }
}
BENCHMARK(BM_ProfilerScopeDisabled);

void
BM_ProfilerScopeEnabled(benchmark::State &state)
{
    // Enabled cost (two clock reads + thread-local slice accounting);
    // informational — only disabled overhead is budgeted.
    prof::reset();
    prof::setEnabled(true);
    for (auto _ : state) {
        prof::Scope s(prof::Network);
        benchmark::DoNotOptimize(&s);
    }
    prof::setEnabled(false);
}
BENCHMARK(BM_ProfilerScopeEnabled);

void
BM_AckwiseAddRemove(benchmark::State &state)
{
    auto s = SharerList::makeAckwise(4);
    for (auto _ : state) {
        for (CoreId c = 0; c < 8; ++c)
            s.add(c);
        for (CoreId c = 0; c < 8; ++c)
            s.remove(c);
    }
}
BENCHMARK(BM_AckwiseAddRemove);

void
BM_HolderVecChurn(benchmark::State &state)
{
    // The L2Meta::holders hot path: grant-order inserts, membership
    // probes, and per-sharer erases on a set sized by the arg (8 =
    // inline capacity; 16 exercises the spill path).
    const CoreId n = static_cast<CoreId>(state.range(0));
    HolderVec v;
    for (auto _ : state) {
        for (CoreId c = 0; c < n; ++c)
            v.insert(c);
        bool any = false;
        for (CoreId c = 0; c < n; ++c)
            any |= v.contains(c);
        benchmark::DoNotOptimize(any);
        for (CoreId c = 0; c < n; ++c)
            v.erase(c);
    }
}
BENCHMARK(BM_HolderVecChurn)->Arg(4)->Arg(8)->Arg(16);

void
BM_LimitedClassifierRemoteAccess(benchmark::State &state)
{
    auto cfg = microCfg();
    LimitedClassifier cls(cfg, false);
    std::vector<CoreLocality> recs(cls.recordsPerLine());
    const LineRecords st(recs.data(), cls.recordsPerLine());
    cls.classify(st, 0);
    cls.onPrivateRemoval(st, 0, 1, RemovalKind::Invalidation);
    RemoteAccessContext ctx{100, false, 50};
    for (auto _ : state) {
        benchmark::DoNotOptimize(cls.onRemoteAccess(st, 0, ctx));
        // Reset the counter so the benchmark stays on the hot path.
        cls.onWriteByOther(st, 5);
    }
}
BENCHMARK(BM_LimitedClassifierRemoteAccess);

/** 4-core system with Table 1 caches, for the L2 fill micros. */
SystemConfig
fillCfg()
{
    SystemConfig c;
    c.numCores = 4;
    c.meshWidth = 2;
    c.clusterSize = 2;
    c.numMemControllers = 2;
    return c;
}

void
BM_L2FirstTouchFill(benchmark::State &state)
{
    // A read of a line nothing has touched yet: L1 miss, DRAM fetch,
    // and a fill into a never-used slot of core 0's L2 slice (the
    // line's private-page home) — the path the warm-up coverage sweep
    // takes for every footprint line. The system is rebuilt, untimed,
    // before its slots run out (1024 fills into 4096 slots).
    constexpr std::uint32_t kFills = 1024;
    const Addr base = Addr{1} << 33;
    std::unique_ptr<Multicore> m;
    std::uint32_t n = kFills;
    for (auto _ : state) {
        if (n == kFills) {
            state.PauseTiming();
            m = std::make_unique<Multicore>(fillCfg());
            m->setFunctionalChecks(false);
            n = 0;
            state.ResumeTiming();
        }
        m->testAccess(0, base + Addr{n++} * 64, false);
    }
}
BENCHMARK(BM_L2FirstTouchFill);

void
BM_L2RefillTransaction(benchmark::State &state)
{
    // Core 0 cycles over assoc + 1 lines that share one L1-D set and
    // one set of its L2 slice: every read misses both, evicts the L2
    // set's LRU line (clearing its slot) and refills that slot from
    // DRAM — the steady-state L2 slot churn.
    const SystemConfig cfg = fillCfg();
    Multicore m(cfg);
    m.setFunctionalChecks(false);
    const L2Cache &l2 = m.tile(0).l2;
    const LineAddr first = (Addr{1} << 33) / cfg.lineSize;
    std::vector<Addr> lines;
    for (LineAddr l = first; lines.size() <= cfg.l2Assoc;
         l += cfg.l1dSets())
        if (l2.setIndex(l) == l2.setIndex(first))
            lines.push_back(l * cfg.lineSize);
    for (const Addr a : lines) // first touch: core 0 owns the pages
        m.testAccess(0, a, false);
    std::size_t i = 0;
    for (auto _ : state) {
        m.testAccess(0, lines[i], false);
        i = i + 1 == lines.size() ? 0 : i + 1;
    }
}
BENCHMARK(BM_L2RefillTransaction);

void
BM_L1HitPath(benchmark::State &state)
{
    Multicore m(microCfg());
    m.setFunctionalChecks(false);
    const Addr a = Addr{1} << 33;
    m.testAccess(0, a, false); // warm
    for (auto _ : state)
        m.testAccess(0, a, false);
}
BENCHMARK(BM_L1HitPath);

void
BM_RemoteWordRoundtrip(benchmark::State &state)
{
    auto cfg = microCfg();
    cfg.classifierKind = ClassifierKind::Complete;
    Multicore m(cfg);
    m.setFunctionalChecks(false);
    const Addr a = Addr{1} << 33;
    // Demote core 0 on this line.
    m.testAccess(0, a, false);
    m.testAccess(1, a, false);
    m.testAccess(0, a, false);
    m.testAccess(1, a, true);
    for (auto _ : state) {
        m.testAccess(0, a, false);
        // Writes by core 1 keep core 0 remote forever.
        m.testAccess(1, a, true);
    }
}
BENCHMARK(BM_RemoteWordRoundtrip);

void
BM_RemoteWordRoundtripFaultArmed(benchmark::State &state)
{
    // Same roundtrip with a fault injector armed at rate zero: every
    // link traversal and directory touch pays the pure-hash roll, but
    // nothing ever fires (threshold 0). The delta against
    // BM_RemoteWordRoundtrip is the full cost of *enabling* fault
    // injection; BM_RemoteWordRoundtrip itself is the --faults none
    // case, where no injector exists and each hook is one untaken
    // null-pointer branch.
    auto cfg = microCfg();
    cfg.classifierKind = ClassifierKind::Complete;
    cfg.faultKind = FaultKind::Links;
    cfg.faultRate = 0.0;
    Multicore m(cfg);
    m.setFunctionalChecks(false);
    const Addr a = Addr{1} << 33;
    m.testAccess(0, a, false);
    m.testAccess(1, a, false);
    m.testAccess(0, a, false);
    m.testAccess(1, a, true);
    for (auto _ : state) {
        m.testAccess(0, a, false);
        m.testAccess(1, a, true);
    }
}
BENCHMARK(BM_RemoteWordRoundtripFaultArmed);

void
BM_WorkloadNext(benchmark::State &state)
{
    auto cfg = microCfg();
    auto wl = makeBenchmark("barnes", cfg, 1000.0);
    CoreId c = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(wl->next(c));
        c = static_cast<CoreId>((c + 1) % 64);
    }
}
BENCHMARK(BM_WorkloadNext);

void
BM_FullSmallRun(benchmark::State &state)
{
    // End-to-end simulator throughput on a small benchmark run.
    for (auto _ : state) {
        auto cfg = microCfg();
        auto wl = makeBenchmark("water-sp", cfg, 0.05);
        Multicore m(cfg);
        m.setFunctionalChecks(false);
        benchmark::DoNotOptimize(m.run(*wl).completionTime());
    }
}
BENCHMARK(BM_FullSmallRun)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
