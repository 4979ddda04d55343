#include "verify/invariants.hh"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <cstring>

#include "protocol/dir_entry.hh"
#include "sim/addr_map.hh"
#include "system/multicore.hh"
#include "system/tile.hh"

namespace lacc {
namespace verify {

namespace {

std::string
vfmt(const char *fmt, ...)
{
    char buf[512];
    va_list ap;
    va_start(ap, fmt);
    std::vsnprintf(buf, sizeof buf, fmt, ap);
    va_end(ap);
    return std::string(buf);
}

/** One core's L1 copies of a line (a core can hold both an I and a
 * D copy of the same line). */
struct Copies
{
    std::uint32_t count = 0;
    std::uint32_t exclusiveCount = 0; //!< copies in E or M
    L1Cache::Entry d, i;
};

Copies
copiesOf(Tile &tl, LineAddr line)
{
    Copies c;
    c.d = tl.l1d.find(line);
    c.i = tl.l1i.find(line);
    for (const auto &e : {c.d, c.i}) {
        if (!e)
            continue;
        ++c.count;
        if (e.meta().state == L1State::Exclusive ||
            e.meta().state == L1State::Modified)
            ++c.exclusiveCount;
    }
    return c;
}

/** Check one valid directory entry at home tile @p h. */
void
checkEntry(Multicore &m, CoreId h, L2Cache::Entry e,
           std::vector<std::string> &out)
{
    const L2Meta &meta = e.meta();
    const LineAddr line = e.tag();
    const unsigned long long ll = line;

    // Holder oracle vs L1 residency, and per-state copy rules.
    std::uint32_t exclusive_copies = 0;
    for (const CoreId s : meta.holders) {
        const Copies c = copiesOf(m.tile(s), line);
        if (c.count == 0)
            out.push_back(vfmt("line %llx home %u: holder %u has no"
                               " L1 copy", ll, h, s));
        exclusive_copies += c.exclusiveCount;
        switch (meta.dstate) {
          case DirState::Shared:
            if (c.exclusiveCount != 0)
                out.push_back(vfmt("line %llx home %u: dir Shared but"
                                   " holder %u has an E/M copy", ll,
                                   h, s));
            break;
          case DirState::Exclusive:
            if (s == meta.owner &&
                (c.count != 1 || c.exclusiveCount != 1))
                out.push_back(vfmt("line %llx home %u: owner %u must"
                                   " hold exactly one E/M copy (has"
                                   " %u copies, %u E/M)", ll, h, s,
                                   c.count, c.exclusiveCount));
            break;
          case DirState::Uncached:
            break; // the holder set itself is flagged below
        }

        // No stale reads: S and E copies must be word-identical to
        // the home L2 copy (an M copy is by definition newer).
        for (const auto &le : {c.d, c.i}) {
            if (!le || le.meta().state == L1State::Modified)
                continue;
            if (std::memcmp(le.words(), e.words(),
                            sizeof(std::uint64_t) *
                                e.wordsPerLine()) != 0)
                out.push_back(vfmt("line %llx home %u: core %u's %s"
                                   " copy differs from the L2 copy",
                                   ll, h, s,
                                   l1StateName(le.meta().state)));
        }
    }

    // Single-writer: at most one E/M copy across the entry's holders,
    // and only under an Exclusive directory state.
    if (exclusive_copies > 1)
        out.push_back(vfmt("line %llx home %u: %u E/M copies coexist",
                           ll, h, exclusive_copies));

    // Directory-state consistency.
    switch (meta.dstate) {
      case DirState::Uncached:
        if (meta.holders.size() != 0 || meta.owner != kInvalidCore)
            out.push_back(vfmt("line %llx home %u: Uncached with %u"
                               " holders (owner %d)", ll, h,
                               meta.holders.size(),
                               static_cast<int>(meta.owner)));
        break;
      case DirState::Shared:
        if (meta.holders.size() == 0)
            out.push_back(vfmt("line %llx home %u: Shared with no"
                               " holders", ll, h));
        if (meta.owner != kInvalidCore)
            out.push_back(vfmt("line %llx home %u: Shared with owner"
                               " %u", ll, h, meta.owner));
        break;
      case DirState::Exclusive:
        if (meta.owner == kInvalidCore ||
            !meta.holders.contains(meta.owner))
            out.push_back(vfmt("line %llx home %u: Exclusive but"
                               " owner %d is not a holder", ll, h,
                               static_cast<int>(meta.owner)));
        if (meta.holders.size() != 1)
            out.push_back(vfmt("line %llx home %u: Exclusive with %u"
                               " holders", ll, h,
                               meta.holders.size()));
        break;
    }

    // Sharer-list/holder agreement: counts always, identities when
    // the list still tracks them (a full-map list always does; an
    // ACKwise list only until pointer overflow).
    if (meta.sharers.count() != meta.holders.size())
        out.push_back(vfmt("line %llx home %u: sharer count %u !="
                           " holder count %u", ll, h,
                           meta.sharers.count(),
                           meta.holders.size()));
    bool tracked_ok = true;
    std::uint32_t tracked_n = 0;
    meta.sharers.forEachTracked([&](CoreId s) {
        ++tracked_n;
        tracked_ok = tracked_ok && meta.holders.contains(s);
    });
    if (!tracked_ok)
        out.push_back(vfmt("line %llx home %u: sharer list tracks a"
                           " non-holder", ll, h));
    else if (!meta.sharers.overflowed() &&
             tracked_n != meta.holders.size())
        out.push_back(vfmt("line %llx home %u: %u tracked sharers !="
                           " %u holders without overflow", ll, h,
                           tracked_n, meta.holders.size()));
}

/**
 * Check one invalid slot at home tile @p h: it must carry exactly the
 * state of a never-used slot, because a fill installs a line into it
 * without resetting anything (SetAssocCache::invalidate clears the
 * directory state and the classifier records).
 */
void
checkFreeSlot(CoreId h, L2Cache::Entry e, std::vector<std::string> &out)
{
    const L2Meta &meta = e.meta();
    if (meta.dstate != DirState::Uncached || meta.owner != kInvalidCore ||
        !meta.holders.empty() || meta.sharers.count() != 0 ||
        meta.sharers.overflowed())
        out.push_back(vfmt("home %u: invalid L2 slot keeps directory"
                           " state", h));
    for (const CoreLocality &r : e.records()) {
        if (!(r == CoreLocality{})) {
            out.push_back(vfmt("home %u: invalid L2 slot keeps"
                               " classifier records", h));
            break;
        }
    }
}

} // namespace

std::vector<std::string>
checkInvariants(Multicore &m)
{
    std::vector<std::string> out;
    const std::uint32_t n = m.config().numCores;

    // Directory side: every slot of every home slice.
    for (std::uint32_t h = 0; h < n; ++h) {
        m.tile(static_cast<CoreId>(h)).l2.forEach([&](L2Cache::Entry e) {
            if (e.valid())
                checkEntry(m, static_cast<CoreId>(h), e, out);
            else
                checkFreeSlot(static_cast<CoreId>(h), e, out);
        });
    }

    // L1 side (inclusion + oracle converse): every resident L1 line
    // must be tracked as a holder at its home slice.
    for (std::uint32_t c = 0; c < n; ++c) {
        Tile &tl = m.tile(static_cast<CoreId>(c));
        for (L1Cache *l1 : {&tl.l1d, &tl.l1i}) {
            const char *which = l1 == &tl.l1d ? "L1-D" : "L1-I";
            l1->forEach([&](L1Cache::Entry e) {
                if (!e.valid())
                    return;
                const LineAddr line = e.tag();
                const CoreId home = m.protocol().directory().homeOf(
                    line, static_cast<CoreId>(c));
                auto he = m.tile(home).l2.find(line);
                if (!he) {
                    out.push_back(vfmt("line %llx: core %u %s copy"
                                       " not present in home %u's L2"
                                       " (inclusion)",
                                       static_cast<unsigned long long>(
                                           line),
                                       c, which, home));
                    return;
                }
                if (!he.meta().holders.contains(
                        static_cast<CoreId>(c)))
                    out.push_back(vfmt("line %llx: core %u %s copy"
                                       " untracked at home %u",
                                       static_cast<unsigned long long>(
                                           line),
                                       c, which, home));
            });
        }
    }
    return out;
}

std::vector<std::string>
checkFinalMemory(Multicore &m)
{
    std::vector<std::string> out;
    const SystemConfig &cfg = m.config();
    const AddressMap addr(cfg);

    // Deterministic order for reporting and shrinking.
    std::vector<std::pair<Addr, std::uint64_t>> words;
    words.reserve(m.functionalMemory().trackedWords());
    m.functionalMemory().forEachWord([&](Addr wa, std::uint64_t v) {
        words.emplace_back(wa, v);
    });
    std::sort(words.begin(), words.end());

    std::vector<std::uint64_t> dram_line(cfg.wordsPerLine());
    for (const auto &[wa, expect] : words) {
        const LineAddr line = addr.lineOf(wa);
        const std::uint32_t w = addr.wordOf(wa);

        // Visible value chain: the unique M copy shadows the L2 copy,
        // which shadows DRAM. Instruction-class lines can be
        // replicated across cluster homes; every replica must agree.
        bool have_l2 = false;
        for (std::uint32_t h = 0; h < cfg.numCores; ++h) {
            auto e = m.tile(static_cast<CoreId>(h)).l2.find(line);
            if (!e)
                continue;
            have_l2 = true;
            std::uint64_t visible = e.words()[w];
            const char *where = "L2 copy";
            if (e.meta().dstate == DirState::Exclusive) {
                Tile &ot = m.tile(e.meta().owner);
                for (auto oc : {ot.l1d.find(line), ot.l1i.find(line)}) {
                    if (oc && oc.meta().state == L1State::Modified) {
                        visible = oc.words()[w];
                        where = "owner's M copy";
                    }
                }
            }
            if (visible != expect)
                out.push_back(vfmt(
                    "word %llx: %s at home %u has %llu, reference"
                    " memory has %llu",
                    static_cast<unsigned long long>(wa), where, h,
                    static_cast<unsigned long long>(visible),
                    static_cast<unsigned long long>(expect)));
        }
        if (!have_l2) {
            m.dram().readLine(line, dram_line.data());
            if (dram_line[w] != expect)
                out.push_back(vfmt(
                    "word %llx: DRAM has %llu, reference memory has"
                    " %llu",
                    static_cast<unsigned long long>(wa),
                    static_cast<unsigned long long>(dram_line[w]),
                    static_cast<unsigned long long>(expect)));
        }
    }
    return out;
}

std::vector<std::string>
checkAll(Multicore &m)
{
    std::vector<std::string> out = checkInvariants(m);
    const auto mem = checkFinalMemory(m);
    out.insert(out.end(), mem.begin(), mem.end());
    if (m.functionalErrors() > 0)
        out.push_back(vfmt("%llu functional read mismatches (see"
                           " warnings above)",
                           static_cast<unsigned long long>(
                               m.functionalErrors())));
    return out;
}

} // namespace verify
} // namespace lacc
