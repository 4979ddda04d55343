#include "verify/enumerate.hh"

#include <algorithm>
#include <array>
#include <cstdio>
#include <deque>
#include <memory>
#include <unordered_set>

#include "net/factory.hh"
#include "protocol/factory.hh"
#include "system/multicore.hh"
#include "verify/invariants.hh"

namespace lacc {
namespace verify {

namespace {

/** The enumerated line pool: 16 lines apart = same direct-mapped L1
 * set (16 sets), same 4 KiB page (1024-byte stride). */
constexpr Addr kBase = Addr{1} << 32;
constexpr Addr kLineStride = 16 * 64;

/** One access event: (core, line index, kind). */
struct Event
{
    std::uint8_t core;
    std::uint8_t line;
    std::uint8_t kind; //!< 0 = read, 1 = write, 2 = ifetch
};

Addr
eventAddr(const Event &e)
{
    return kBase + static_cast<Addr>(e.line) * kLineStride;
}

void
applyEvent(Multicore &m, const Event &e)
{
    m.testAccess(static_cast<CoreId>(e.core), eventAddr(e),
                 e.kind == 1, e.kind == 2);
}

std::unique_ptr<Multicore>
replay(const SystemConfig &cfg, const std::vector<Event> &path)
{
    auto m = std::make_unique<Multicore>(cfg);
    for (const Event &e : path)
        applyEvent(*m, e);
    return m;
}

void
appendNum(std::string &s, std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "%llx",
                  static_cast<unsigned long long>(v));
    s += buf;
    s += ',';
}

/** Canonical (timing-free, threshold-capped) state encoding; see the
 * file header of enumerate.hh for the soundness argument. */
std::string
encodeState(Multicore &m)
{
    const SystemConfig &cfg = m.config();
    std::string s;
    s.reserve(256);

    // L1 contents: per core, per cache, (tag, state, capped util)
    // sorted by tag.
    for (std::uint32_t c = 0; c < cfg.numCores; ++c) {
        Tile &tl = m.tile(static_cast<CoreId>(c));
        for (L1Cache *l1 : {&tl.l1d, &tl.l1i}) {
            std::vector<std::array<std::uint64_t, 3>> lines;
            l1->forEach([&](L1Cache::Entry e) {
                if (!e.valid())
                    return;
                lines.push_back(
                    {e.tag(),
                     static_cast<std::uint64_t>(e.meta().state),
                     std::min(e.meta().privateUtil, cfg.pct)});
            });
            std::sort(lines.begin(), lines.end());
            s += l1 == &tl.l1d ? 'D' : 'I';
            for (const auto &l : lines)
                for (const std::uint64_t v : l)
                    appendNum(s, v);
        }
        s += '|';
    }

    // Directory entries: per home, sorted by tag; protocol metadata
    // plus the full per-core classifier records.
    for (std::uint32_t h = 0; h < cfg.numCores; ++h) {
        std::vector<L2Cache::Entry> entries;
        m.tile(static_cast<CoreId>(h)).l2.forEach(
            [&](L2Cache::Entry e) {
                if (e.valid())
                    entries.push_back(e);
            });
        std::sort(entries.begin(), entries.end(),
                  [](const L2Cache::Entry &a, const L2Cache::Entry &b) {
                      return a.tag() < b.tag();
                  });
        s += 'H';
        for (const auto &e : entries) {
            const L2Meta &meta = e.meta();
            appendNum(s, e.tag());
            appendNum(s, static_cast<std::uint64_t>(meta.dstate));
            appendNum(s, meta.owner);
            // dirty is deliberately excluded: it only gates the DRAM
            // write-back on an L2 eviction, and the bounded config
            // can never evict an L2 line (<= 2 distinct lines, 4
            // sets x 8 ways), so it is decision-irrelevant here the
            // same way data words are.
            appendNum(s, meta.sharers.count());
            appendNum(s, meta.sharers.overflowed() ? 1 : 0);
            s += 't';
            for (const CoreId t : meta.sharers.tracked())
                appendNum(s, t);
            s += 'h';
            std::vector<CoreId> holders(meta.holders.begin(),
                                        meta.holders.end());
            std::sort(holders.begin(), holders.end());
            for (const CoreId t : holders)
                appendNum(s, t);
            s += 'k';
            for (std::uint32_t c = 0; c < cfg.numCores; ++c) {
                const CoreLocality *loc = m.classifier().peek(
                    e.records(), static_cast<CoreId>(c));
                if (loc == nullptr) {
                    s += '-';
                    continue;
                }
                // `active` is deliberately excluded: with one record
                // per core (Complete, which enumConfig pins, shortcut
                // off) the classifier writes it but never reads it —
                // only a line with fewer records than cores consults
                // it, to pick a record to replace — so like the
                // timing fields it cannot influence any future
                // decision here.
                appendNum(s,
                          static_cast<std::uint64_t>(loc->mode));
                appendNum(s, std::min(loc->remoteUtil, cfg.ratMax));
                appendNum(s, loc->ratLevel);
            }
            s += ';';
        }
        s += '|';
    }

    // R-NUCA page record of the (single) enumerated page: class and
    // owner drive every future home lookup and rehome decision.
    const PageAddr page = kBase / cfg.pageSize;
    if (const PageTable::Record *rec = m.pageTable().lookup(page)) {
        s += 'P';
        appendNum(s, static_cast<std::uint64_t>(rec->cls));
        appendNum(s, rec->owner);
    }
    return s;
}

std::string
renderPath(const std::vector<Event> &path)
{
    std::string s;
    for (const Event &e : path) {
        char buf[64];
        std::snprintf(buf, sizeof buf, "core %u %c %llx\n", e.core,
                      "rwf"[e.kind],
                      static_cast<unsigned long long>(eventAddr(e)));
        s += buf;
    }
    return s;
}

} // namespace

SystemConfig
enumConfig(std::uint32_t cores, const std::string &protocol,
           const std::string &network)
{
    SystemConfig cfg;
    cfg.numCores = cores;
    cfg.meshWidth = cores;
    cfg.clusterSize = cores; // one cluster: unique instruction homes
    cfg.numMemControllers = 1;
    cfg.l1iSizeKB = 1;
    cfg.l1iAssoc = 1; // direct-mapped: deterministic replacement
    cfg.l1dSizeKB = 1;
    cfg.l1dAssoc = 1;
    cfg.l2SizeKB = 2;
    cfg.l2Assoc = 8; // 4 sets; never fills with <= 2 lines
    cfg.ackwisePointers = 1; // overflow reachable with 2 sharers
    cfg.classifierKind = ClassifierKind::Complete;
    cfg.pct = 2;
    cfg.ratMax = 2;
    // One RAT level: with pct == ratMax every level's threshold is
    // identical anyway, and collapsing the level counter removes a
    // decision-irrelevant state dimension from the search.
    cfg.nRatLevels = 1;
    applyProtocolName(cfg, protocol);
    applyNetworkName(cfg, network);
    return cfg;
}

EnumResult
enumerate(const EnumOptions &opt)
{
    EnumResult res;
    const SystemConfig cfg =
        enumConfig(opt.cores, opt.protocol, opt.network);

    // Event alphabet: every (core, line, kind) access.
    std::vector<Event> events;
    for (std::uint32_t c = 0; c < opt.cores; ++c)
        for (std::uint32_t l = 0; l < opt.lines; ++l)
            for (std::uint8_t k = 0; k < 3; ++k)
                events.push_back({static_cast<std::uint8_t>(c),
                                  static_cast<std::uint8_t>(l), k});

    std::unordered_set<std::string> seen;
    std::deque<std::vector<Event>> frontier;
    bool capped = false;

    {
        auto m = std::make_unique<Multicore>(cfg);
        seen.insert(encodeState(*m));
        frontier.push_back({});
    }

    while (!frontier.empty()) {
        const std::vector<Event> path = std::move(frontier.front());
        frontier.pop_front();
        for (const Event &e : events) {
            std::vector<Event> next = path;
            next.push_back(e);
            auto m = replay(cfg, next);
            ++res.transitions;
            auto viol = checkAll(*m);
            if (!viol.empty()) {
                res.states = seen.size();
                res.violations = std::move(viol);
                res.counterexample = renderPath(next);
                return res;
            }
            if (!seen.insert(encodeState(*m)).second)
                continue;
            if (seen.size() >= opt.maxStates) {
                capped = true;
                break;
            }
            frontier.push_back(std::move(next));
        }
        if (capped)
            break;
    }

    res.states = seen.size();
    res.exhaustive = !capped;
    return res;
}

} // namespace verify
} // namespace lacc
