/**
 * @file
 * Execution engines: the event-loop strategy that drives a Multicore
 * through a workload. The simulator's semantics are defined by the
 * serial engine — a single priority-queue event loop popping the
 * minimum (time, core) key — and every other engine must reproduce
 * that interleaving bit-identically; engines trade wall-clock for
 * threads, never results.
 *
 *  - SerialEngine: the reference single-threaded loop (this file).
 *  - ShardedEngine (system/sharded.hh): partitions tiles across a
 *    worker pool and advances in deterministic scan/commit/drain
 *    epochs.
 *
 * Engines are built by a config-keyed factory mirroring the protocol
 * and network factories (one named-registry entry per engine; see
 * sim/named_registry.hh).
 */

#ifndef LACC_SYSTEM_ENGINE_HH
#define LACC_SYSTEM_ENGINE_HH

#include <memory>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "sim/types.hh"

namespace lacc {

class CoreTouchObserver;
class Multicore;
class Workload;
struct SystemConfig;

/** Strategy driving one simulation to completion; see file header. */
class ExecutionEngine
{
  public:
    virtual ~ExecutionEngine() = default;

    /** Factory key and report name, e.g. "serial" or "sharded". */
    virtual const char *name() const = 0;

    /** Drive @p workload to completion (single-use, like Multicore). */
    virtual void run(Workload &workload) = 0;

    /**
     * Multicore::schedule landing point: core @p c becomes runnable
     * at time @p t (its tile clock is already set). Called by the
     * step/synchronization handlers while run() is executing them.
     */
    virtual void onSchedule(CoreId c, Cycle t) = 0;

    /**
     * The protocol-layer observer this engine wants wired into the
     * ProtocolContext, or nullptr (the serial engine needs none). The
     * Multicore installs it before constructing the protocol.
     */
    virtual CoreTouchObserver *touchObserver() { return nullptr; }
};

/**
 * The reference engine: one priority queue ordered by (time, core),
 * one op executed per pop. Defines the simulator's interleaving.
 */
class SerialEngine final : public ExecutionEngine
{
  public:
    explicit SerialEngine(Multicore &m) : m_(m) {}

    const char *name() const override { return "serial"; }
    void run(Workload &workload) override;

    void
    onSchedule(CoreId c, Cycle t) override
    {
        queue_.emplace(t, c);
    }

  private:
    Multicore &m_;
    using QEntry = std::pair<Cycle, CoreId>;
    std::priority_queue<QEntry, std::vector<QEntry>, std::greater<>>
        queue_;
};

/**
 * Build the engine selected by @p cfg.engineKind for @p m (which must
 * outlive it). Mirrors makeNetwork.
 */
std::unique_ptr<ExecutionEngine> makeEngine(const SystemConfig &cfg,
                                            Multicore &m);

/** Registered engine names, in factory order: {"serial", "sharded"}. */
const std::vector<std::string> &engineNames();

/** Name the factory would select for @p cfg. */
const char *engineNameFor(const SystemConfig &cfg);

/**
 * Reconfigure @p cfg to select the named engine (harness sweeps by
 * name). fatal() on an unknown name, listing the valid ones.
 */
void applyEngineName(SystemConfig &cfg, const std::string &name);

} // namespace lacc

#endif // LACC_SYSTEM_ENGINE_HH
