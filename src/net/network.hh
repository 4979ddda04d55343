/**
 * @file
 * The on-chip interconnect: one concrete NetworkModel for every
 * fabric.
 *
 * The paper evaluates LACC on one fabric — an electrical 2-D mesh
 * with native broadcast support (§3.1, Table 1) — but the protocol's
 * headline mechanism (ACKwise_p falling back to broadcast on pointer
 * overflow) is exactly the part whose cost depends on what the
 * network makes cheap, so the model also runs a torus, a ring and a
 * crossbar (config-keyed by name, net/factory.hh).
 *
 * Routing (docs/ARCHITECTURE.md "Routing"): mesh, torus and ring are
 * one topology, a dimension-ordered k-ary n-cube. Each dimension has
 * a size and a wrap flag — the mesh is W x H without wrap, the torus
 * W x H with wrap, the ring one dimension of N with wrap. A unicast
 * routes dimension by dimension, the shorter way around a wrapped
 * dimension (ties go forward). A broadcast is a single injection that
 * routers replicate along a line tree: forward, then backward along
 * dimension 0 from the source, then forward and backward along
 * dimension 1 from every dimension-0 node in ascending order. The
 * directed link leaving node n along dimension d is
 * n*2*dims + 2*d + back. The crossbar is the one other case: one hop
 * on output port dst, and no replication — a broadcast is emulated as
 * serialized unicasts, the i-th departing i*flits cycles late.
 * routeHops()/treeHops() generate these walks arithmetically (compare
 * and wrap, no per-hop division), and unicast()/broadcast() consume
 * them directly, so memory is O(links), not O(N²).
 *
 * Shared timing model:
 *  - hop latency hopLatency cycles: 1 router + 1 link pipeline stage
 *    per hop;
 *  - wormhole serialization: a message of F flits arrives F-1 cycles
 *    after its head flit;
 *  - contention is modeled on directed links only, with infinite
 *    input buffers: each link carries one flit per cycle. Queueing
 *    uses a windowed backlog model (like Graphite's
 *    lax-synchronization queue models): each link tracks the flit
 *    backlog accumulated in the current time window, drains it at
 *    link rate, and delays a message by the undrained backlog ahead
 *    of it. Unlike an absolute next-free-cycle booking, this
 *    tolerates the small timestamp reordering inherent to per-core
 *    clocks: a message from a slightly lagging core sees the same
 *    backlog instead of paying the whole clock skew as phantom
 *    queueing.
 */

#ifndef LACC_NET_NETWORK_HH
#define LACC_NET_NETWORK_HH

#include <array>
#include <cstdint>
#include <vector>

#include "energy/model.hh"
#include "sim/config.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace lacc {

class FaultInjector;

/**
 * Interconnect shared by all tiles of a Multicore: the routing
 * generator, the directed-link contention state, traffic statistics
 * and energy charging (see the file header).
 */
class NetworkModel
{
  public:
    /**
     * One hop of a route or broadcast tree: the head flit leaves
     * @p from (plus delay * flits injection-serialization cycles,
     * nonzero only for the crossbar's emulated broadcast) and crosses
     * directed link @p link to @p to.
     */
    struct Hop
    {
        std::uint32_t link;
        CoreId from;
        CoreId to;
        std::uint32_t delay;
    };

    /**
     * @param cfg    system configuration (fabric kind, geometry, hop
     *               latency, contention flag)
     * @param energy whole-system energy accumulator
     */
    NetworkModel(const SystemConfig &cfg, EnergyModel &energy);

    /** Factory key of this fabric, e.g. "mesh" or "xbar". */
    const char *name() const { return name_; }

    /** Directed links (contention slots) of this fabric. */
    std::uint32_t numLinks() const
    {
        return static_cast<std::uint32_t>(links_.size());
    }

    /**
     * Routing distance between two tiles in links traversed
     * (0 for src == dst). Drives Message::hops and idealLatency().
     */
    std::uint32_t
    hopCount(CoreId src, CoreId dst) const
    {
        if (crossbar_)
            return src == dst ? 0 : 1;
        // Unused dimensions have size 1 and coordinate 0.
        std::uint32_t hops = 0;
        for (std::uint32_t d = 0; d < kMaxDims; ++d) {
            bool back;
            hops += legLength(d, coords_[src][d], coords_[dst][d], back);
        }
        return hops;
    }

    /**
     * Send a unicast message and return its arrival time (time the
     * last flit is ejected at @p dst). Accounts link contention and
     * router/link energy.
     *
     * @param src    source tile
     * @param dst    destination tile
     * @param flits  total message length including header
     * @param depart injection time at the source
     */
    Cycle unicast(CoreId src, CoreId dst, std::uint32_t flits,
                  Cycle depart);

    /**
     * Broadcast from @p src to all tiles. Arrival times (last flit)
     * per tile are written to @p arrivals (indexed by CoreId). The
     * source receives its own copy at depart, or with the tail flit
     * when the tree has two dimensions (the dimension-1 lines re-
     * deliver through the source router after the payload
     * serializes).
     *
     * @return the maximum arrival time over all tiles.
     */
    Cycle broadcast(CoreId src, std::uint32_t flits, Cycle depart,
                    std::vector<Cycle> &arrivals);

    /**
     * Contention-free latency of a unicast (test/analysis helper):
     * hops * hopLatency + (flits - 1).
     */
    Cycle idealLatency(CoreId src, CoreId dst, std::uint32_t flits) const
    {
        return static_cast<Cycle>(hopCount(src, dst)) * hopLatency_ +
               (flits > 0 ? flits - 1 : 0);
    }

    /**
     * Visit the hops of the src -> dst route in traversal order:
     * dimension 0 first, then dimension 1 (no hops when src == dst).
     */
    template <typename Visit>
    void routeHops(CoreId src, CoreId dst, Visit &&visit) const;

    /**
     * Visit the hops of the broadcast tree rooted at @p src in
     * traversal order. Every non-source tile is reached exactly once,
     * and every hop's parent is the source or an earlier hop's child
     * (contention updates are order-sensitive).
     */
    template <typename Visit>
    void treeHops(CoreId src, Visit &&visit) const;

    /** Traffic counters for this network. */
    const NetworkStats &stats() const { return stats_; }

    /** Reset traffic counters and link state. */
    void reset();

    /** Reset traffic counters only (links stay occupied). */
    void resetStats() { stats_ = NetworkStats{}; }

    /**
     * Attach (or detach, with nullptr) the lossy-link fault process
     * (fault/injector.hh). Wired by the Multicore when a non-none
     * FaultPlan with active link faults is selected; the detached
     * state costs exactly one untaken branch per link traversal
     * (pinned by bench_micro).
     */
    void setFaultInjector(FaultInjector *fi) { fault_ = fi; }

    /**
     * Latched fault of the most recent unicast/broadcast, cleared by
     * reading. @p was_drop distinguishes a lost message (source
     * timeout) from a corrupted one (destination NACK). The message
     * transport consumes this after every send to drive its
     * retransmit path. @return false when the traversal was clean.
     */
    bool
    consumeTraversalFault(bool &was_drop)
    {
        if (!faultPending_)
            return false;
        was_drop = faultDrop_;
        faultPending_ = false;
        return true;
    }

  private:
    /** Dimensions of the largest cube (the 2-D mesh and torus). */
    static constexpr std::uint32_t kMaxDims = 2;

    /** One cube dimension: its size, node-index stride and wrap. */
    struct Dim
    {
        std::uint32_t size = 1;
        std::uint32_t stride = 1;
        bool wrap = false;
    };

    /**
     * Length and direction of the src -> dst leg along dimension
     * @p d: dimension order takes the shorter way around a wrapped
     * dimension, ties going forward.
     */
    std::uint32_t
    legLength(std::uint32_t d, std::uint32_t from, std::uint32_t to,
              bool &back) const
    {
        const Dim &dim = dims_[d];
        const bool down = to < from;
        const std::uint32_t diff = down ? from - to : to - from;
        // The other way around a wrapped dimension is size - diff
        // hops; on a tie the forward way wins.
        const bool around =
            dim.wrap && (down ? 2 * diff >= dim.size : 2 * diff > dim.size);
        back = down != around;
        return around ? dim.size - diff : diff;
    }

    /**
     * Visit @p steps hops along dimension @p d from @p at (whose
     * coordinate in d is @p c), forward or @p back. A line is a
     * straight run that wraps at most once, at the dimension's edge,
     * so stepping is an add and a compare per hop. @return the node
     * reached.
     */
    template <typename Visit>
    CoreId
    line(CoreId at, std::uint32_t c, std::uint32_t d, bool back,
         std::uint32_t steps, Visit &visit) const
    {
        const Dim &dim = dims_[d];
        const std::uint32_t step = back ? 0u - dim.stride : dim.stride;
        const std::uint32_t wrap_step = step - dim.size * step;
        const std::uint32_t port = 2 * d + (back ? 1 : 0);
        // Hop index that crosses the edge (never reached without wrap).
        const std::uint32_t edge = back ? c : dim.size - 1 - c;
        std::uint32_t node = at;
        for (std::uint32_t i = 0; i < steps; ++i) {
            const std::uint32_t to = node + (i == edge ? wrap_step : step);
            visit(Hop{node * linksPerNode_ + port, static_cast<CoreId>(node),
                      static_cast<CoreId>(to), 0});
            node = to;
        }
        return static_cast<CoreId>(node);
    }

    /**
     * Route one message across a single directed link, applying the
     * windowed-backlog contention model (see the file header).
     * Header-inline so the route walk compiles to a tight
     * non-calling loop.
     *
     * @param link  directed link id in [0, numLinks())
     * @param t     head-flit time at the link's input
     * @param flits message length
     * @return head-flit time at the link's output
     */
    Cycle
    traverseLink(std::uint32_t link, Cycle t, std::uint32_t flits)
    {
        // Router stage, then link stage. The head flit wants the link
        // at t + 1; with link-only contention it may have to queue
        // behind the link's undrained backlog (see the file header).
        Cycle head_at_link = t + 1;
        // Fault hook: the entire disabled cost is this one untaken
        // branch; the roll itself is out-of-line.
        if (fault_ != nullptr)
            rollLinkFault(link, head_at_link, flits);
        if (modelContention_) {
            LinkState &ls = links_[link];
            const Cycle w = head_at_link / kWindow;
            if (w > ls.windowId) {
                // The link drains one flit per cycle between windows.
                const std::uint64_t drained =
                    (w - ls.windowId) * kWindow;
                ls.backlog = ls.backlog > drained
                                 ? ls.backlog - drained
                                 : 0;
                ls.windowId = w;
            }
            // Work queued ahead minus what drained since window
            // start; messages from slightly lagging clocks
            // (w < windowId) see the current backlog without paying
            // the skew itself.
            const Cycle elapsed =
                w >= ls.windowId ? head_at_link % kWindow : 0;
            if (ls.backlog > elapsed) {
                const Cycle wait = ls.backlog - elapsed;
                stats_.contentionCycles += wait;
                head_at_link += wait;
            }
            ls.backlog += flits;
        }
        return head_at_link + (hopLatency_ - 1);
    }

    /**
     * Roll the seeded per-link Bernoulli fault process for one
     * traversal and latch the outcome for consumeTraversalFault().
     * The first fault of a multi-link route wins (the message dies at
     * the first bad link; later links still charge flits/energy — a
     * deliberate upper bound that keeps the per-message accounting
     * batched).
     */
    void rollLinkFault(std::uint32_t link, Cycle t,
                       std::uint32_t flits);

    /** Windowed backlog state of one directed link. */
    struct LinkState
    {
        Cycle windowId = 0;        //!< current window index
        std::uint64_t backlog = 0; //!< undrained flits in the window
    };

    /** Window length in cycles (power of two; also the drain rate). */
    static constexpr Cycle kWindow = 64;

    const char *name_;
    std::uint32_t numCores_;
    std::uint32_t hopLatency_;
    bool modelContention_;
    /** Crossbar: one hop on output port dst, emulated broadcast. */
    bool crossbar_;
    std::uint32_t numDims_ = 0;
    std::uint32_t linksPerNode_ = 1;
    std::array<Dim, kMaxDims> dims_{};
    /** Per-core cube coordinates (hopCount and the route walk). */
    std::vector<std::array<std::uint16_t, kMaxDims>> coords_;

    EnergyModel &energy_;
    NetworkStats stats_;
    std::vector<LinkState> links_;
    std::vector<Cycle> headScratch_; //!< per-node head-flit times

    // Fault-injection hook state (serialized contexts only: every
    // traversal happens on the engine's drain thread).
    FaultInjector *fault_ = nullptr;
    bool faultPending_ = false;
    bool faultDrop_ = false;
};

template <typename Visit>
void
NetworkModel::routeHops(CoreId src, CoreId dst, Visit &&visit) const
{
    if (src == dst)
        return;
    if (crossbar_) {
        visit(Hop{dst, src, dst, 0});
        return;
    }
    CoreId at = src;
    for (std::uint32_t d = 0; d < numDims_; ++d) {
        const std::uint32_t c = coords_[src][d];
        bool back;
        const std::uint32_t steps =
            legLength(d, c, coords_[dst][d], back);
        at = line(at, c, d, back, steps, visit);
    }
}

template <typename Visit>
void
NetworkModel::treeHops(CoreId src, Visit &&visit) const
{
    if (crossbar_) {
        // Serialized unicast per destination in CoreId order: every
        // hop hangs off the source, the i-th delayed by i*flits.
        std::uint32_t i = 0;
        for (std::uint32_t dst = 0; dst < numCores_; ++dst)
            if (dst != src)
                visit(Hop{dst, src, static_cast<CoreId>(dst), i++});
        return;
    }
    // Line roots: the source along dimension 0, then every
    // dimension-0 node of the source's line, ascending, along
    // dimension 1. A line expands forward, then backward: to the edge
    // of a non-wrapping dimension, or around a wrapped one (forward
    // covers size/2 nodes, backward the rest).
    const std::uint32_t roots = numDims_ == 2 ? 1 + dims_[0].size : 1;
    const CoreId row = static_cast<CoreId>(src - coords_[src][0]);
    for (std::uint32_t r = 0; r < roots; ++r) {
        const CoreId root = r == 0 ? src : static_cast<CoreId>(row + r - 1);
        const std::uint32_t d = r == 0 ? 0 : 1;
        const Dim &dim = dims_[d];
        const std::uint32_t c = coords_[root][d];
        const std::uint32_t fwd = dim.wrap ? dim.size / 2 : dim.size - 1 - c;
        line(root, c, d, false, fwd, visit);
        line(root, c, d, true, dim.size - 1 - fwd, visit);
    }
}

} // namespace lacc

#endif // LACC_NET_NETWORK_HH
