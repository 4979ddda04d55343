/**
 * @file
 * The repository benchmark's measurement core: the named workloads,
 * a counting Workload decorator, and the build -> construct -> run ->
 * check path timed from outside the simulator.
 *
 * Everything here calls only the public API of the simulator library
 * (workload/, system/, verify/, sim/profiler.hh); nothing inside the
 * simulator is instrumented for the benchmark. main.cc turns passes
 * into the metrics of BENCHMARK.json; README.md documents them.
 */

#ifndef LACC_PERFBENCH_PERFBENCH_HH
#define LACC_PERFBENCH_PERFBENCH_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/config.hh"
#include "sim/profiler.hh"
#include "sim/stats.hh"
#include "workload/workload.hh"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Seconds between two steady-clock points. */
inline double
seconds(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** Workload seed used when none is given on the command line. */
constexpr std::uint64_t kDefaultSeed = 42;
/** Fault-schedule seed used when none is given (SystemConfig default). */
constexpr std::uint64_t kDefaultFaultSeed = 0xFA17;

/**
 * One named benchmark workload: the system configuration and the
 * simulations that make up one pass over it.
 */
struct WorkloadDef
{
    std::string name;
    lacc::SystemConfig cfg;
    std::vector<std::string> benches;
    double opScale = 1.0;
};

/** {"paper64", "litmus-faults"}. */
const std::vector<std::string> &workloadNames();

/**
 * Build workload @p name with workload seed @p seed and fault seed
 * @p fault_seed. @p op_scale <= 0 selects the workload's own
 * benchmark scale; tests pass a small one. Throws
 * std::invalid_argument for an unknown name.
 */
WorkloadDef makeWorkload(const std::string &name, std::uint64_t seed,
                         std::uint64_t fault_seed,
                         double op_scale = 0.0);

/**
 * Benchmark-owned Workload decorator: forwards every virtual to the
 * wrapped workload, counts next() calls per core, and time-stamps the
 * warm-up boundary -- the moment the last core emits its
 * warmupBarriers()-th Barrier. Counters are per core on their own
 * cache lines, so the sharded engine still calls next() for different
 * cores from different threads.
 */
class CountingWorkload final : public lacc::Workload
{
  public:
    explicit CountingWorkload(lacc::Workload &inner);

    const std::string &name() const override { return inner_.name(); }
    std::uint32_t numCores() const override { return inner_.numCores(); }
    std::uint32_t numLocks() const override { return inner_.numLocks(); }
    lacc::MemOp next(lacc::CoreId core) override;
    bool
    concurrentNextSafe() const override
    {
        return inner_.concurrentNextSafe();
    }
    std::uint32_t
    iFootprintLines(lacc::CoreId core) const override
    {
        return inner_.iFootprintLines(core);
    }
    std::uint64_t
    footprintBytes() const override
    {
        return inner_.footprintBytes();
    }
    lacc::Addr
    lockAddr(std::uint32_t id) const override
    {
        return inner_.lockAddr(id);
    }
    lacc::Addr codeBase() const override { return inner_.codeBase(); }
    std::uint32_t
    warmupBarriers() const override
    {
        return inner_.warmupBarriers();
    }

    /** next() calls over all cores. Read after the run finished. */
    std::uint64_t nextCalls() const;

    /** Whether every core passed the warm-up barrier. */
    bool reachedWarmupBoundary() const;

    /** When the last core emitted its warm-up Barrier. */
    Clock::time_point warmupBoundary() const { return boundary_; }

  private:
    struct alignas(64) CoreCount
    {
        std::uint64_t next = 0;
        std::uint32_t barriers = 0;
    };

    lacc::Workload &inner_;
    const std::uint32_t warmup_;
    std::vector<CoreCount> counts_;
    std::atomic<std::uint32_t> arrived_{0};
    Clock::time_point boundary_{};
};

/** What one simulation of a pass produced. */
struct SimResult
{
    std::string bench;
    bool aborted = false;
    std::string abortReason;

    // Host time, seconds.
    double buildS = 0.0;   //!< makeBenchmark / makeLitmus
    double ctorS = 0.0;    //!< Multicore construction
    double runS = 0.0;     //!< inside Multicore::run
    double runCpuS = 0.0;  //!< process CPU time inside Multicore::run
    double checkS = 0.0;   //!< verify::checkAll
    double wallS = 0.0;    //!< whole simulation incl. teardown (runPass)
    double warmupS = 0.0;  //!< run start -> warm-up boundary (traced)
    double measureS = 0.0; //!< warm-up boundary -> run end (traced)
    std::uint64_t nextCalls = 0; //!< Workload::next calls (traced)

    // Simulated outputs.
    lacc::SystemStats stats;
    std::uint64_t signature = 0; //!< statsSignature(stats)
    std::uint64_t simOps = 0;
    std::uint64_t functionalErrors = 0;
    std::uint64_t violations = 0; //!< verify::checkAll messages

    /** Abort, functional error, violation or silent corruption. */
    bool
    failed() const
    {
        return aborted || functionalErrors != 0 || violations != 0 ||
               stats.faults.silentCorruptions != 0;
    }
};

/**
 * Run one simulation of @p bench the way lacc::runBenchmark does
 * (same workload builder, functional-check setting and system), timing
 * each public call, then check it with verify::checkAll. @p traced
 * drives the system through a CountingWorkload; the caller owns the
 * profiler state. A RunAbort is caught and recorded.
 */
SimResult runSim(const WorkloadDef &w, const std::string &bench,
                 bool traced);

/** One pass: every simulation of a workload, in order. */
struct PassResult
{
    double wallS = 0.0;
    std::vector<SimResult> sims;
    lacc::prof::Snapshot prof; //!< bucket totals (traced passes only)
    std::uint64_t digest = 0;  //!< order-sensitive mix of signatures

    std::uint64_t failures() const;
    std::uint64_t simOps() const;
    double geomeanCycles() const;
    double geomeanEnergy() const;
};

/**
 * Run one pass over @p w. A traced pass wraps each workload in a
 * CountingWorkload and enables the simulator's profiler for the
 * duration of each Multicore::run.
 */
PassResult runPass(const WorkloadDef &w, bool traced);

} // namespace perfbench

#endif // LACC_PERFBENCH_PERFBENCH_HH
