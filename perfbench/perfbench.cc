#include "perfbench.hh"

#include <algorithm>
#include <cmath>
#include <ctime>
#include <memory>
#include <stdexcept>

#include "sim/abort.hh"
#include "system/experiment.hh"
#include "system/multicore.hh"
#include "system/report.hh"
#include "verify/invariants.hh"
#include "workload/litmus.hh"
#include "workload/suite.hh"

namespace perfbench {

using namespace lacc;

namespace {

/**
 * Per-workload op scales. One pass takes about 4.5-6 s (paper64) and
 * 0.25-0.4 s (litmus-faults) on a 4-core x86 VM, so a 55 s run holds
 * at least nine. The suite's warm-up sweep is a fixed cost per
 * simulation, which is why the suite passes cannot be shorter.
 */
constexpr double kPaper64Scale = 0.25;
constexpr double kLitmusScale = 40.0;

double
processCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
}

std::unique_ptr<Workload>
buildWorkload(const std::string &bench, const SystemConfig &cfg,
              double op_scale)
{
    if (isLitmus(bench))
        return std::make_unique<TraceWorkload>(
            makeLitmus(bench, cfg, op_scale));
    return makeBenchmark(bench, cfg, op_scale);
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {"paper64",
                                                   "litmus-faults"};
    return names;
}

WorkloadDef
makeWorkload(const std::string &name, std::uint64_t seed,
             std::uint64_t fault_seed, double op_scale)
{
    WorkloadDef w;
    w.name = name;
    w.cfg = defaultConfig();
    w.cfg.seed = seed;
    w.cfg.faultSeed = fault_seed;
    if (name == "paper64") {
        // Table 1 defaults. Conversion benchmarks (concomp, dfs),
        // capacity/DRAM pressure (canneal, streamcluster), a
        // hit-dominated stream (blackscholes, water-sp) and a
        // sync-heavy one (tsp).
        w.benches = {"blackscholes", "concomp",  "dfs", "canneal",
                     "streamcluster", "water-sp", "tsp"};
        w.opScale = kPaper64Scale;
    } else if (name == "litmus-faults") {
        // Write-heavy true and false sharing with no warm-up and no
        // DRAM, over lossy links so NACK/retransmit and the oracles
        // do real work.
        w.cfg.faultKind = FaultKind::Links;
        w.benches = {"litmus-prodcons", "litmus-falseshare",
                     "litmus-taslock"};
        w.opScale = kLitmusScale;
    } else {
        throw std::invalid_argument("unknown workload '" + name + "'");
    }
    if (op_scale > 0.0)
        w.opScale = op_scale;
    return w;
}

CountingWorkload::CountingWorkload(Workload &inner)
    : inner_(inner), warmup_(inner.warmupBarriers()),
      counts_(inner.numCores())
{}

MemOp
CountingWorkload::next(CoreId core)
{
    const MemOp op = inner_.next(core);
    CoreCount &c = counts_[core];
    ++c.next;
    if (op.kind == MemOp::Kind::Barrier && ++c.barriers == warmup_) {
        // The last core to arrive releases the warm-up barrier.
        if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 ==
            counts_.size())
            boundary_ = Clock::now();
    }
    return op;
}

std::uint64_t
CountingWorkload::nextCalls() const
{
    std::uint64_t n = 0;
    for (const CoreCount &c : counts_)
        n += c.next;
    return n;
}

bool
CountingWorkload::reachedWarmupBoundary() const
{
    return warmup_ > 0 &&
           arrived_.load(std::memory_order_acquire) == counts_.size();
}

SimResult
runSim(const WorkloadDef &w, const std::string &bench, bool traced)
{
    SimResult r;
    r.bench = bench;

    const auto t0 = Clock::now();
    std::unique_ptr<Workload> workload =
        buildWorkload(bench, w.cfg, w.opScale);
    const auto t1 = Clock::now();
    Multicore system(w.cfg);
    const auto t2 = Clock::now();
    r.buildS = seconds(t0, t1);
    r.ctorS = seconds(t1, t2);

    // As runBenchmark: litmus and fault-injected runs keep the
    // functional oracle armed, suite runs move data unchecked.
    system.setFunctionalChecks(isLitmus(bench) ||
                               w.cfg.faultKind != FaultKind::None);

    std::unique_ptr<CountingWorkload> counted;
    if (traced)
        counted = std::make_unique<CountingWorkload>(*workload);
    Workload &driven =
        counted ? static_cast<Workload &>(*counted) : *workload;

    const double cpu0 = processCpuSeconds();
    const auto t3 = Clock::now();
    if (traced)
        prof::setEnabled(true);
    try {
        r.stats = system.run(driven);
    } catch (const RunAbort &e) {
        r.aborted = true;
        r.abortReason = e.what();
    }
    if (traced)
        prof::setEnabled(false);
    const auto t4 = Clock::now();
    r.runS = seconds(t3, t4);
    r.runCpuS = processCpuSeconds() - cpu0;

    if (counted) {
        r.nextCalls = counted->nextCalls();
        if (counted->reachedWarmupBoundary()) {
            r.warmupS = seconds(t3, counted->warmupBoundary());
            r.measureS = seconds(counted->warmupBoundary(), t4);
        } else {
            r.measureS = r.runS;
        }
    }
    if (r.aborted)
        return r; // the system is not reusable after a RunAbort

    r.signature = statsSignature(r.stats);
    for (const auto &c : r.stats.perCore)
        r.simOps += c.instructions;
    r.functionalErrors = system.functionalErrors();
    const auto t5 = Clock::now();
    r.violations = verify::checkAll(system).size();
    r.checkS = seconds(t5, Clock::now());
    return r;
}

std::uint64_t
PassResult::failures() const
{
    std::uint64_t n = 0;
    for (const auto &s : sims)
        n += s.failed() ? 1 : 0;
    return n;
}

std::uint64_t
PassResult::simOps() const
{
    std::uint64_t n = 0;
    for (const auto &s : sims)
        n += s.simOps;
    return n;
}

double
PassResult::geomeanCycles() const
{
    double log_sum = 0.0;
    for (const auto &s : sims)
        log_sum += std::log(static_cast<double>(
            std::max<Cycle>(s.stats.completionTime(), 1)));
    return sims.empty() ? 0.0 : std::exp(log_sum / sims.size());
}

double
PassResult::geomeanEnergy() const
{
    double log_sum = 0.0;
    for (const auto &s : sims)
        log_sum += std::log(std::max(s.stats.energy.total(), 1e-12));
    return sims.empty() ? 0.0 : std::exp(log_sum / sims.size());
}

PassResult
runPass(const WorkloadDef &w, bool traced)
{
    PassResult p;
    if (traced)
        prof::reset();
    const auto t0 = Clock::now();
    for (const auto &bench : w.benches) {
        const auto t = Clock::now();
        p.sims.push_back(runSim(w, bench, traced));
        p.sims.back().wallS = seconds(t, Clock::now());
    }
    p.wallS = seconds(t0, Clock::now());
    if (traced)
        p.prof = prof::snapshot();
    // FNV-1a over the per-simulation signatures, in pass order.
    p.digest = 0xcbf29ce484222325ull;
    for (const auto &s : p.sims) {
        p.digest ^= s.signature;
        p.digest *= 0x100000001b3ull;
    }
    return p;
}

} // namespace perfbench
