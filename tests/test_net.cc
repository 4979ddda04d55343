/**
 * @file
 * Unit tests for the interconnect layer, all through makeNetwork: the
 * 2-D mesh (XY distances, wormhole serialization, link contention,
 * broadcast tree coverage, energy/traffic accounting), the torus, ring
 * and crossbar (wraparound distances, broadcast arcs and trees,
 * serialized-broadcast emulation), property tests of the k-ary n-cube
 * route and tree generator against an independent link graph, a
 * pinned digest of random traffic per topology, and the factory.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <deque>
#include <map>

#include "energy/model.hh"
#include "fault/injector.hh"
#include "net/factory.hh"

namespace lacc {
namespace {

SystemConfig
meshCfg(std::uint32_t cores, std::uint32_t width)
{
    SystemConfig cfg;
    cfg.numCores = cores;
    cfg.meshWidth = width;
    cfg.clusterSize = cores >= 4 ? 4 : 1;
    cfg.numMemControllers = cores >= 8 ? 8 : 1;
    return cfg;
}

std::unique_ptr<NetworkModel>
makeNet(const char *name, SystemConfig cfg, EnergyModel &e)
{
    applyNetworkName(cfg, name);
    return makeNetwork(cfg, e);
}

/** Directed links of the src -> dst route, in traversal order. */
std::vector<std::uint32_t>
routeLinks(const NetworkModel &net, CoreId src, CoreId dst)
{
    std::vector<std::uint32_t> out;
    net.routeHops(src, dst, [&](const NetworkModel::Hop &h) {
        out.push_back(h.link);
    });
    return out;
}

TEST(Mesh, Coordinates)
{
    // Tiles are row-major: tile 9 is (x=1, y=1) and tile 63 is (7, 7)
    // on the 8x8 mesh, so XY routes from tile 0 take x steps east
    // (link node*4 + 0), then y steps south (node*4 + 2).
    EnergyModel e;
    const auto net = makeNet("mesh", meshCfg(64, 8), e);
    EXPECT_EQ(routeLinks(*net, 0, 9),
              (std::vector<std::uint32_t>{0 * 4 + 0, 1 * 4 + 2}));
    std::vector<std::uint32_t> corner;
    for (std::uint32_t x = 0; x < 7; ++x)
        corner.push_back(x * 4 + 0);
    for (std::uint32_t y = 0; y < 7; ++y)
        corner.push_back((y * 8 + 7) * 4 + 2);
    EXPECT_EQ(routeLinks(*net, 0, 63), corner);
}

TEST(Mesh, HopCountManhattan)
{
    EnergyModel e;
    const auto net = makeNet("mesh", meshCfg(64, 8), e);
    EXPECT_EQ(net->hopCount(0, 0), 0u);
    EXPECT_EQ(net->hopCount(0, 7), 7u);
    EXPECT_EQ(net->hopCount(0, 63), 14u);
    EXPECT_EQ(net->hopCount(9, 18), 2u);
}

TEST(Mesh, IdealLatency)
{
    EnergyModel e;
    const auto net = makeNet("mesh", meshCfg(64, 8), e);
    // hops * 2 + (flits - 1)
    EXPECT_EQ(net->idealLatency(0, 1, 1), 2u);
    EXPECT_EQ(net->idealLatency(0, 1, 9), 10u);
    EXPECT_EQ(net->idealLatency(0, 63, 1), 28u);
}

TEST(Mesh, UnicastMatchesIdealWithoutContention)
{
    EnergyModel e;
    const auto net = makeNet("mesh", meshCfg(64, 8), e);
    const Cycle t = net->unicast(0, 63, 9, 1000);
    EXPECT_EQ(t, 1000 + net->idealLatency(0, 63, 9));
}

TEST(Mesh, LocalDeliveryIsFree)
{
    EnergyModel e;
    const auto net = makeNet("mesh", meshCfg(64, 8), e);
    EXPECT_EQ(net->unicast(5, 5, 9, 123), 123u);
    EXPECT_EQ(net->stats().flitHops, 0u);
    EXPECT_DOUBLE_EQ(e.breakdown().link, 0.0);
}

TEST(Mesh, ContentionDelaysSecondMessage)
{
    EnergyModel e;
    const auto net = makeNet("mesh", meshCfg(4, 2), e);
    // Two 8-flit messages over the same single link 0->1 at t=0.
    const Cycle a = net->unicast(0, 1, 8, 0);
    const Cycle b = net->unicast(0, 1, 8, 0);
    EXPECT_EQ(a, net->idealLatency(0, 1, 8));
    EXPECT_GT(b, a);
    EXPECT_GE(net->stats().contentionCycles, 7u);
}

TEST(Mesh, ContentionDisabledWhenConfigured)
{
    auto cfg = meshCfg(4, 2);
    cfg.modelContention = false;
    EnergyModel e;
    const auto net = makeNet("mesh", cfg, e);
    const Cycle a = net->unicast(0, 1, 8, 0);
    const Cycle b = net->unicast(0, 1, 8, 0);
    EXPECT_EQ(a, b);
    EXPECT_EQ(net->stats().contentionCycles, 0u);
}

TEST(Mesh, DisjointPathsNoContention)
{
    EnergyModel e;
    const auto net = makeNet("mesh", meshCfg(64, 8), e);
    const Cycle a = net->unicast(0, 7, 8, 0);
    const Cycle b = net->unicast(56, 63, 8, 0); // different row
    EXPECT_EQ(a, b);
    EXPECT_EQ(net->stats().contentionCycles, 0u);
}

TEST(Mesh, XYRoutingOrder)
{
    // A's X-leg (row 0) and B's Y-leg share no link under XY routing
    // even though their paths cross at tile 3.
    EnergyModel e;
    const auto net = makeNet("mesh", meshCfg(64, 8), e);
    net->unicast(0, 7, 8, 0);   // row 0 eastward
    net->unicast(3, 59, 8, 0);  // straight down column 3
    EXPECT_EQ(net->stats().contentionCycles, 0u);
}

TEST(Mesh, BroadcastReachesAll)
{
    EnergyModel e;
    const auto net = makeNet("mesh", meshCfg(64, 8), e);
    std::vector<Cycle> arrivals;
    const Cycle max_t = net->broadcast(27, 1, 500, arrivals);
    ASSERT_EQ(arrivals.size(), 64u);
    Cycle seen_max = 0;
    for (CoreId c = 0; c < 64; ++c) {
        if (c == 27)
            continue;
        EXPECT_GE(arrivals[c], 500 + net->idealLatency(27, c, 1))
            << "core " << c;
        seen_max = std::max(seen_max, arrivals[c]);
    }
    EXPECT_EQ(max_t, seen_max);
}

TEST(Mesh, BroadcastUsesSpanningTreeLinks)
{
    EnergyModel e;
    const auto net = makeNet("mesh", meshCfg(64, 8), e);
    std::vector<Cycle> arrivals;
    net->broadcast(0, 1, 0, arrivals);
    // N-1 tree links, 1 flit each.
    EXPECT_EQ(net->stats().flitHops, 63u);
    EXPECT_EQ(net->stats().broadcasts, 1u);
}

TEST(Mesh, BroadcastCheaperThanUnicastStorm)
{
    EnergyModel e1, e2;
    const auto a = makeNet("mesh", meshCfg(64, 8), e1);
    const auto b = makeNet("mesh", meshCfg(64, 8), e2);
    std::vector<Cycle> arrivals;
    a->broadcast(0, 1, 0, arrivals);
    for (CoreId c = 1; c < 64; ++c)
        b->unicast(0, c, 1, 0);
    EXPECT_LT(a->stats().flitHops, b->stats().flitHops);
    EXPECT_LT(e1.breakdown().link, e2.breakdown().link);
}

TEST(Mesh, EnergyLinkExceedsRouterPerDefaults)
{
    // 11nm trend (§5.1.1): links cost more than routers.
    EnergyModel e;
    const auto net = makeNet("mesh", meshCfg(64, 8), e);
    net->unicast(0, 63, 8, 0);
    EXPECT_GT(e.breakdown().link, e.breakdown().router);
}

TEST(Mesh, StatsAccumulateAndReset)
{
    EnergyModel e;
    const auto net = makeNet("mesh", meshCfg(16, 4), e);
    net->unicast(0, 15, 2, 0);
    EXPECT_EQ(net->stats().unicasts, 1u);
    EXPECT_EQ(net->stats().flitsInjected, 2u);
    EXPECT_EQ(net->stats().flitHops, 2u * net->hopCount(0, 15));
    net->reset();
    EXPECT_EQ(net->stats().unicasts, 0u);
    EXPECT_EQ(net->stats().flitHops, 0u);
}

TEST(Mesh, NonSquareMesh)
{
    EnergyModel e;
    const auto net = makeNet("mesh", meshCfg(8, 4), e); // 4x2 mesh
    EXPECT_EQ(net->hopCount(0, 7), 4u);
    std::vector<Cycle> arrivals;
    net->broadcast(5, 1, 0, arrivals);
    EXPECT_EQ(net->stats().flitHops, 7u);
}

TEST(Mesh, BroadcastOccupiesXThenYTreeLinks)
{
    // 4x4 mesh, broadcast from tile 5 = (x=1, y=1). The X-then-Y tree
    // expands east/west along row 1 and north/south along every
    // column; directed link ids are node*4 + {E=0, W=1, S=2, N=3}.
    EnergyModel e;
    const auto net = makeNet("mesh", meshCfg(16, 4), e);
    std::map<std::uint32_t, int> used;
    net->treeHops(5, [&](const NetworkModel::Hop &h) { ++used[h.link]; });

    const auto link = [](CoreId node, std::uint32_t dir) {
        return node * 4 + dir;
    };
    // Row expansion: 5->6->7 east, 5->4 west.
    EXPECT_EQ(used.count(link(5, 0)), 1u);
    EXPECT_EQ(used.count(link(6, 0)), 1u);
    EXPECT_EQ(used.count(link(7, 0)), 0u); // east edge: no wrap
    EXPECT_EQ(used.count(link(5, 1)), 1u);
    EXPECT_EQ(used.count(link(4, 1)), 0u); // west edge: no wrap
    // Column expansion from every row-1 node: south two rows, north
    // one row (e.g. column 2: 6->10->14 south, 6->2 north).
    EXPECT_EQ(used.count(link(6, 2)), 1u);
    EXPECT_EQ(used.count(link(10, 2)), 1u);
    EXPECT_EQ(used.count(link(6, 3)), 1u);
    EXPECT_EQ(used.count(link(2, 3)), 0u); // north edge
    // The tree occupies exactly N-1 directed links, once each.
    for (const auto &[l, n] : used)
        EXPECT_EQ(n, 1) << "link " << l;
    EXPECT_EQ(used.size(), 15u);
}

// ---------------------------------------------------------------------------
// Torus
// ---------------------------------------------------------------------------

TEST(Torus, WraparoundHopCounts)
{
    EnergyModel e;
    const auto net = makeNet("torus", meshCfg(64, 8), e);
    EXPECT_EQ(net->hopCount(0, 0), 0u);
    EXPECT_EQ(net->hopCount(0, 7), 1u);   // row wrap: 7 on the mesh
    EXPECT_EQ(net->hopCount(0, 56), 1u);  // column wrap
    EXPECT_EQ(net->hopCount(0, 63), 2u);  // both wraps: 14 on the mesh
    EXPECT_EQ(net->hopCount(0, 36), 8u);  // (4,4): the torus diameter
    EXPECT_EQ(net->hopCount(9, 18), 2u);  // no wrap: same as the mesh
    // Symmetric: wrap distance is direction-independent.
    EXPECT_EQ(net->hopCount(63, 0), 2u);
}

TEST(Torus, NeverWorseThanMesh)
{
    EnergyModel e1, e2;
    const auto mesh = makeNet("mesh", meshCfg(64, 8), e1);
    const auto torus = makeNet("torus", meshCfg(64, 8), e2);
    for (CoreId s = 0; s < 64; s += 7)
        for (CoreId d = 0; d < 64; ++d)
            EXPECT_LE(torus->hopCount(s, d), mesh->hopCount(s, d))
                << s << "->" << d;
}

TEST(Torus, UnicastMatchesIdealWithoutContention)
{
    EnergyModel e;
    const auto net = makeNet("torus", meshCfg(64, 8), e);
    const Cycle t = net->unicast(0, 63, 9, 1000);
    EXPECT_EQ(t, 1000 + net->idealLatency(0, 63, 9));
    EXPECT_EQ(net->stats().flitHops, 9u * 2);
    EXPECT_EQ(net->unicast(5, 5, 9, 123), 123u); // local delivery
}

TEST(Torus, BroadcastReachesAllOverSpanningTree)
{
    EnergyModel e;
    const auto net = makeNet("torus", meshCfg(64, 8), e);
    std::vector<Cycle> arrivals;
    const Cycle max_t = net->broadcast(27, 1, 500, arrivals);
    ASSERT_EQ(arrivals.size(), 64u);
    Cycle seen_max = 0;
    for (CoreId c = 0; c < 64; ++c) {
        if (c == 27)
            continue;
        EXPECT_GE(arrivals[c], 500 + net->idealLatency(27, c, 1))
            << "core " << c;
        seen_max = std::max(seen_max, arrivals[c]);
    }
    EXPECT_EQ(max_t, seen_max);
    // N-1 tree links, 1 flit each, single injection.
    EXPECT_EQ(net->stats().flitHops, 63u);
    EXPECT_EQ(net->stats().flitsInjected, 1u);
    EXPECT_EQ(net->stats().broadcasts, 1u);
}

// ---------------------------------------------------------------------------
// Ring
// ---------------------------------------------------------------------------

TEST(Ring, ShorterArcHopCounts)
{
    EnergyModel e;
    const auto net = makeNet("ring", meshCfg(16, 4), e);
    EXPECT_EQ(net->hopCount(0, 0), 0u);
    EXPECT_EQ(net->hopCount(0, 15), 1u); // wraparound edge
    EXPECT_EQ(net->hopCount(15, 0), 1u);
    EXPECT_EQ(net->hopCount(0, 8), 8u);  // the diameter
    EXPECT_EQ(net->hopCount(3, 7), 4u);
    EXPECT_EQ(net->hopCount(7, 3), 4u);
}

TEST(Ring, UnicastMatchesIdealWithoutContention)
{
    EnergyModel e;
    const auto net = makeNet("ring", meshCfg(16, 4), e);
    const Cycle t = net->unicast(0, 15, 9, 1000);
    EXPECT_EQ(t, 1000 + net->idealLatency(0, 15, 9));
    EXPECT_EQ(net->stats().flitHops, 9u); // one wraparound hop
}

TEST(Ring, BroadcastExpandsBothArcs)
{
    EnergyModel e;
    const auto net = makeNet("ring", meshCfg(16, 4), e);
    std::vector<Cycle> arrivals;
    const Cycle max_t = net->broadcast(3, 1, 100, arrivals);
    ASSERT_EQ(arrivals.size(), 16u);
    for (CoreId c = 0; c < 16; ++c) {
        if (c == 3)
            continue;
        EXPECT_GE(arrivals[c], 100 + net->idealLatency(3, c, 1))
            << "core " << c;
    }
    // N-1 arc links, 1 flit each, single injection; the farthest node
    // (the clockwise arc's end, 8 hops away) bounds the release.
    EXPECT_EQ(net->stats().flitHops, 15u);
    EXPECT_EQ(net->stats().flitsInjected, 1u);
    EXPECT_EQ(max_t, 100 + net->idealLatency(3, 11, 1));
}

TEST(Ring, HigherDiameterThanMesh)
{
    EnergyModel e1, e2;
    const auto mesh = makeNet("mesh", meshCfg(64, 8), e1);
    const auto ring = makeNet("ring", meshCfg(64, 8), e2);
    EXPECT_EQ(ring->hopCount(0, 32), 32u);  // ring diameter: N/2
    EXPECT_EQ(mesh->hopCount(0, 32), 4u);
}

// ---------------------------------------------------------------------------
// Crossbar
// ---------------------------------------------------------------------------

TEST(Crossbar, UniformSingleHopLatency)
{
    EnergyModel e;
    const auto net = makeNet("xbar", meshCfg(64, 8), e);
    EXPECT_EQ(net->hopCount(0, 1), 1u);
    EXPECT_EQ(net->hopCount(0, 63), 1u);
    EXPECT_EQ(net->hopCount(5, 5), 0u);
    // hops * 2 + (flits - 1), independent of the pair.
    EXPECT_EQ(net->idealLatency(0, 1, 9), net->idealLatency(0, 63, 9));
    const Cycle t = net->unicast(0, 63, 9, 1000);
    EXPECT_EQ(t, 1000 + net->idealLatency(0, 63, 9));
    EXPECT_EQ(net->stats().flitHops, 9u);
}

TEST(Crossbar, OutputPortContention)
{
    EnergyModel e;
    const auto net = makeNet("xbar", meshCfg(16, 4), e);
    // Two senders to the same destination contend on its output port;
    // two senders to different destinations do not.
    const Cycle a = net->unicast(0, 5, 8, 0);
    const Cycle b = net->unicast(1, 5, 8, 0);
    EXPECT_GT(b, a);
    EXPECT_GE(net->stats().contentionCycles, 7u);
    EnergyModel e2;
    const auto clean = makeNet("xbar", meshCfg(16, 4), e2);
    EXPECT_EQ(clean->unicast(0, 5, 8, 0), clean->unicast(1, 6, 8, 0));
    EXPECT_EQ(clean->stats().contentionCycles, 0u);
}

TEST(Crossbar, BroadcastSerializesUnicasts)
{
    EnergyModel e;
    const auto net = makeNet("xbar", meshCfg(16, 4), e);
    std::vector<Cycle> arrivals;
    const std::uint32_t flits = 4;
    const Cycle max_t = net->broadcast(3, flits, 200, arrivals);
    ASSERT_EQ(arrivals.size(), 16u);
    EXPECT_EQ(arrivals[3], 200u);

    // Emulation: one unicast per destination, injected back-to-back
    // at one flit per cycle — (N-1)*flits injected flits and hops,
    // versus a single injection and N-1 tree links on the mesh.
    EXPECT_EQ(net->stats().broadcasts, 1u);
    EXPECT_EQ(net->stats().unicasts, 15u);
    EXPECT_EQ(net->stats().flitsInjected, 15u * flits);
    EXPECT_EQ(net->stats().flitHops, 15u * flits);

    // The i-th copy (CoreId order, source skipped) departs i*flits
    // later; distinct output ports mean no port contention, so each
    // arrival is exactly its injection plus the uniform latency.
    std::uint64_t i = 0;
    for (CoreId c = 0; c < 16; ++c) {
        if (c == 3)
            continue;
        EXPECT_EQ(arrivals[c],
                  200 + i * flits + net->idealLatency(3, c, flits))
            << "core " << c;
        ++i;
    }
    EXPECT_EQ(max_t, arrivals[15]);
}

TEST(Crossbar, EmulatedBroadcastCostsMoreThanMeshTree)
{
    EnergyModel e1, e2;
    const auto mesh = makeNet("mesh", meshCfg(64, 8), e1);
    const auto xbar = makeNet("xbar", meshCfg(64, 8), e2);
    std::vector<Cycle> arrivals;
    mesh->broadcast(0, 8, 0, arrivals);
    xbar->broadcast(0, 8, 0, arrivals);
    EXPECT_GT(xbar->stats().flitsInjected, mesh->stats().flitsInjected);
    EXPECT_GT(e2.breakdown().link, 0.0);
}

// ---------------------------------------------------------------------------
// Route and tree generator properties
// ---------------------------------------------------------------------------

/**
 * A fabric's directed link graph, written down from its definition
 * rather than from the generator: a link of the cube leaves node
 * link / (2*dims) along dimension (link % (2*dims)) / 2, backward when
 * the link id is odd; a crossbar link is the output port of tile
 * link, reachable from every other tile.
 */
struct LinkGraph
{
    std::uint32_t cores = 0;
    std::vector<std::uint32_t> sizes; //!< per dimension; empty: xbar
    bool wrap = false;

    std::uint32_t
    linksPerNode() const
    {
        return static_cast<std::uint32_t>(2 * sizes.size());
    }

    std::uint32_t
    dimOf(std::uint32_t link) const
    {
        return link % linksPerNode() / 2;
    }

    /** Tile reached over @p link from @p from, or kInvalidCore. */
    CoreId
    target(std::uint32_t link, CoreId from) const
    {
        if (sizes.empty())
            return link < cores && link != from ? static_cast<CoreId>(link)
                                                : kInvalidCore;
        if (link / linksPerNode() != from)
            return kInvalidCore;
        const std::uint32_t d = dimOf(link);
        const bool back = link % 2 != 0;
        std::uint32_t stride = 1;
        for (std::uint32_t k = 0; k < d; ++k)
            stride *= sizes[k];
        const std::int64_t c = from / stride % sizes[d];
        std::int64_t nc = back ? c - 1 : c + 1;
        const std::int64_t size = sizes[d];
        if (nc < 0 || nc >= size) {
            if (!wrap)
                return kInvalidCore;
            nc = (nc + size) % size;
        }
        return static_cast<CoreId>(from + (nc - c) * stride);
    }

    /** Directed links leaving @p from (candidates; see target()). */
    std::pair<std::uint32_t, std::uint32_t>
    outLinks(CoreId from) const
    {
        if (sizes.empty())
            return {0, cores};
        return {from * linksPerNode(), (from + 1) * linksPerNode()};
    }

    /** Breadth-first link distance from @p src to every tile. */
    std::vector<std::uint32_t>
    distances(CoreId src) const
    {
        std::vector<std::uint32_t> dist(cores, ~0u);
        std::deque<CoreId> q{src};
        dist[src] = 0;
        while (!q.empty()) {
            const CoreId u = q.front();
            q.pop_front();
            const auto [lo, hi] = outLinks(u);
            for (std::uint32_t l = lo; l < hi; ++l) {
                const CoreId v = target(l, u);
                if (v != kInvalidCore && dist[v] == ~0u) {
                    dist[v] = dist[u] + 1;
                    q.push_back(v);
                }
            }
        }
        return dist;
    }
};

LinkGraph
linkGraphOf(const std::string &name, const SystemConfig &cfg)
{
    LinkGraph g;
    g.cores = cfg.numCores;
    if (name == "ring")
        g.sizes = {cfg.numCores};
    else if (name != "xbar")
        g.sizes = {cfg.meshWidth, cfg.meshHeight()};
    g.wrap = name != "mesh";
    return g;
}

/** Run @p check on every topology at 16, 64, 8 (4x2), 12 (3x4) cores. */
template <typename Check>
void
forEachFabric(Check check)
{
    const std::pair<std::uint32_t, std::uint32_t> geometries[] = {
        {16, 4}, {64, 8}, {8, 4}, {12, 3}};
    for (const auto &[cores, width] : geometries) {
        for (const auto &name : networkNames()) {
            SystemConfig cfg = meshCfg(cores, width);
            applyNetworkName(cfg, name);
            EnergyModel e;
            const auto net = makeNetwork(cfg, e);
            SCOPED_TRACE(name + " " + std::to_string(cores) + "/" +
                         std::to_string(width));
            check(*net, linkGraphOf(name, cfg));
        }
    }
}

TEST(RouteGenerator, RoutesFollowLinksAndEndAtDst)
{
    forEachFabric([](const NetworkModel &net, const LinkGraph &g) {
        ASSERT_EQ(net.numLinks(),
                  g.sizes.empty() ? g.cores : g.cores * g.linksPerNode());
        for (CoreId s = 0; s < g.cores; ++s) {
            for (CoreId d = 0; d < g.cores; ++d) {
                CoreId at = s;
                net.routeHops(s, d, [&](const NetworkModel::Hop &h) {
                    ASSERT_EQ(h.from, at);
                    ASSERT_LT(h.link, net.numLinks());
                    ASSERT_EQ(g.target(h.link, h.from), h.to)
                        << "link " << h.link;
                    EXPECT_EQ(h.delay, 0u);
                    at = h.to;
                });
                EXPECT_EQ(at, d) << s << "->" << d;
            }
        }
    });
}

TEST(RouteGenerator, RouteLengthIsLinkGraphDistance)
{
    forEachFabric([](const NetworkModel &net, const LinkGraph &g) {
        for (CoreId s = 0; s < g.cores; ++s) {
            const auto dist = g.distances(s);
            for (CoreId d = 0; d < g.cores; ++d) {
                EXPECT_EQ(routeLinks(net, s, d).size(), dist[d])
                    << s << "->" << d;
                EXPECT_EQ(net.hopCount(s, d), dist[d]) << s << "->" << d;
            }
        }
    });
}

TEST(RouteGenerator, RoutesAreDimensionOrdered)
{
    forEachFabric([](const NetworkModel &net, const LinkGraph &g) {
        if (g.sizes.empty())
            return; // crossbar: one hop
        for (CoreId s = 0; s < g.cores; ++s) {
            for (CoreId d = 0; d < g.cores; ++d) {
                std::uint32_t dim = 0;
                for (const std::uint32_t l : routeLinks(net, s, d)) {
                    EXPECT_GE(g.dimOf(l), dim) << s << "->" << d;
                    dim = g.dimOf(l);
                }
            }
        }
    });
}

TEST(RouteGenerator, BroadcastTreeSpansEveryTileOnceParentsFirst)
{
    forEachFabric([](const NetworkModel &net, const LinkGraph &g) {
        for (CoreId s = 0; s < g.cores; ++s) {
            std::vector<bool> reached(g.cores, false);
            reached[s] = true;
            std::uint32_t hops = 0;
            net.treeHops(s, [&](const NetworkModel::Hop &h) {
                ASSERT_TRUE(reached[h.from])
                    << "tree of " << s << " reaches " << h.to
                    << " from unvisited " << h.from;
                ASSERT_FALSE(reached[h.to])
                    << "tree of " << s << " covers " << h.to << " twice";
                ASSERT_EQ(g.target(h.link, h.from), h.to)
                    << "link " << h.link;
                // Only the crossbar's emulation serializes copies.
                EXPECT_EQ(h.delay, g.sizes.empty() ? hops : 0u);
                reached[h.to] = true;
                ++hops;
            });
            EXPECT_EQ(hops, g.cores - 1) << "tree of " << s;
        }
    });
}

// ---------------------------------------------------------------------------
// Pinned net-level golden
// ---------------------------------------------------------------------------

/** Deterministic 64-bit LCG (tests must not depend on libstdc++). */
struct Lcg
{
    std::uint64_t s;
    std::uint32_t
    next(std::uint32_t m)
    {
        s = s * 6364136223846793005ULL + 1442695040888963407ULL;
        return static_cast<std::uint32_t>((s >> 33) % m);
    }
};

/** FNV-1a over 64-bit words. */
struct Fnv
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    void
    add(std::uint64_t v)
    {
        for (int b = 0; b < 8; ++b) {
            h ^= (v >> (8 * b)) & 0xff;
            h *= 0x100000001b3ULL;
        }
    }
    void
    add(double d)
    {
        std::uint64_t v;
        std::memcpy(&v, &d, sizeof v);
        add(v);
    }
};

/**
 * Digest of one topology under the 2000-message LCG traffic sequence:
 * every hop count, unicast/broadcast return value and arrivals vector,
 * every latched link fault, then the NetworkStats, the fault counters
 * and the link/router energy. A lossy-link injector is attached so the
 * digest also pins the directed link id of every traversal (the fault
 * schedule is keyed on it); contention alone would only pin which
 * messages share a link.
 */
std::uint64_t
trafficDigest(const SystemConfig &base, const std::string &name,
              std::uint64_t seed)
{
    SystemConfig cfg = base;
    applyNetworkName(cfg, name);
    cfg.faultKind = FaultKind::Links;
    cfg.faultRate = 0.01;
    EnergyModel e;
    FaultInjector fi(cfg);
    const auto net = makeNetwork(cfg, e);
    net->setFaultInjector(&fi);

    Fnv d;
    Lcg rng{seed};
    std::vector<Cycle> arrivals;
    Cycle clock = 0;
    for (int i = 0; i < 2000; ++i) {
        const auto src = static_cast<CoreId>(rng.next(cfg.numCores));
        const auto dst = static_cast<CoreId>(rng.next(cfg.numCores));
        const std::uint32_t flits = 1 + rng.next(9);
        clock += rng.next(5);
        d.add(std::uint64_t{net->hopCount(src, dst)});
        if (rng.next(8) == 0) {
            d.add(std::uint64_t{
                net->broadcast(src, flits, clock, arrivals)});
            for (const Cycle a : arrivals)
                d.add(std::uint64_t{a});
        } else {
            d.add(std::uint64_t{net->unicast(src, dst, flits, clock)});
        }
        bool drop = false;
        const bool fault = net->consumeTraversalFault(drop);
        d.add(std::uint64_t{fault} << 1 | std::uint64_t{drop});
    }
    // The link ids are pinned only if faults actually fire.
    EXPECT_GT(fi.stats().linkDrops + fi.stats().linkCorruptions, 0u)
        << name;
    const NetworkStats &s = net->stats();
    for (const std::uint64_t v : {s.unicasts, s.broadcasts,
                                  s.flitsInjected, s.flitHops,
                                  s.contentionCycles,
                                  fi.stats().linkDrops,
                                  fi.stats().linkCorruptions})
        d.add(v);
    d.add(e.breakdown().link);
    d.add(e.breakdown().router);
    return d.h;
}

/** One pinned traffic run: fabric, geometry, seed and its digest. */
struct Golden
{
    const char *name;
    std::uint32_t cores, width;
    bool contention;
    std::uint64_t seed;
    std::uint64_t digest;
};

void
expectGolden(const Golden &g)
{
    SystemConfig cfg = meshCfg(g.cores, g.width);
    cfg.modelContention = g.contention;
    const std::uint64_t got = trafficDigest(cfg, g.name, g.seed);
    EXPECT_EQ(got, g.digest)
        << g.name << " " << g.cores << "/" << g.width
        << (g.contention ? " contention" : " ideal") << ": 0x"
        << std::hex << got;
}

// The digests below were pinned with the flat routing tables and
// reference walkers that the k-ary n-cube generator replaced; the
// generator must stay equivalent to them bit for bit.

TEST(TableEquivalence, AllTopologiesWithContention)
{
    for (const Golden &g : {
             Golden{"mesh", 16, 4, true, 1, 0x51f1c74502cdae44},
             Golden{"torus", 16, 4, true, 2, 0xfedf691378353d8},
             Golden{"ring", 16, 4, true, 3, 0xb824db41ee1b84b0},
             Golden{"xbar", 16, 4, true, 4, 0x89b1250b0ffa122e},
         })
        expectGolden(g);
}

TEST(TableEquivalence, AllTopologiesWithoutContention)
{
    // The no-contention path computes arrivals analytically; it must
    // still reproduce the hop-by-hop times and per-link accounting.
    for (const Golden &g : {
             Golden{"mesh", 16, 4, false, 99, 0x8e9b901bccd5754},
             Golden{"torus", 16, 4, false, 100, 0x56761a813bc9e007},
             Golden{"ring", 16, 4, false, 101, 0x45c6c6495df04747},
             Golden{"xbar", 16, 4, false, 102, 0x85f9c6861641ce1e},
         })
        expectGolden(g);
}

TEST(TableEquivalence, NonSquareMeshAndTorus)
{
    // Rectangular geometry (4x2) exercises distinct row/column line
    // lengths in the broadcast trees.
    for (const Golden &g : {
             Golden{"mesh", 8, 4, true, 7, 0x4345e547a37b98eb},
             Golden{"torus", 8, 4, true, 8, 0x118e083bcbac9890},
         })
        expectGolden(g);
}

// ---------------------------------------------------------------------------
// Factory
// ---------------------------------------------------------------------------

TEST(NetFactory, BuildsEveryRegisteredTopology)
{
    EXPECT_EQ(networkNames(),
              (std::vector<std::string>{"mesh", "torus", "ring",
                                        "xbar"}));
    for (const auto &name : networkNames()) {
        SystemConfig cfg = meshCfg(16, 4);
        applyNetworkName(cfg, name);
        EXPECT_STREQ(networkNameFor(cfg), name.c_str());
        EnergyModel e;
        const auto net = makeNetwork(cfg, e);
        ASSERT_NE(net, nullptr);
        EXPECT_STREQ(net->name(), name.c_str());
        // Sanity: local delivery is free everywhere and
        // distinct tiles are at least one hop apart.
        EXPECT_EQ(net->hopCount(2, 2), 0u);
        EXPECT_GE(net->hopCount(0, 9), 1u);
        EXPECT_EQ(net->unicast(2, 2, 4, 77), 77u);
    }
}

TEST(NetFactory, DefaultConfigSelectsMesh)
{
    const SystemConfig cfg;
    EXPECT_EQ(cfg.networkKind, NetworkKind::Mesh);
    EXPECT_STREQ(networkNameFor(cfg), "mesh");
}

} // namespace
} // namespace lacc
