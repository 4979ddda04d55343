/**
 * @file
 * Unit tests for sharer tracking: ACKwise_p exact/overflow semantics
 * and the full-map baseline; plus the directory's host-memory
 * footprint pins (bytes of metadata per L2 line, no per-line heap).
 */

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>

#include <gtest/gtest.h>

#include "core/classifier.hh"
#include "protocol/core_vec.hh"
#include "protocol/dir_entry.hh"
#include "protocol/sharer_list.hh"
#include "system/multicore.hh"

namespace {

/** Heap allocations made through operator new (this binary only). */
std::atomic<std::uint64_t> gAllocations{0};

} // namespace

void *
operator new(std::size_t n)
{
    gAllocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n != 0 ? n : 1))
        return p;
    throw std::bad_alloc();
}

// Not inlined, so the compiler pairs each delete with operator new
// rather than with the malloc inside it.
__attribute__((noinline)) void
operator delete(void *p) noexcept
{
    std::free(p);
}

__attribute__((noinline)) void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace lacc {
namespace {

TEST(Ackwise, ExactTrackingBelowP)
{
    auto s = SharerList::makeAckwise(4);
    s.add(3);
    s.add(7);
    s.add(11);
    EXPECT_EQ(s.count(), 3u);
    EXPECT_FALSE(s.overflowed());
    EXPECT_TRUE(s.contains(3));
    EXPECT_TRUE(s.contains(7));
    EXPECT_TRUE(s.contains(11));
    EXPECT_FALSE(s.contains(5));
}

TEST(Ackwise, AddIdempotent)
{
    auto s = SharerList::makeAckwise(4);
    s.add(3);
    s.add(3);
    EXPECT_EQ(s.count(), 1u);
}

TEST(Ackwise, OverflowAtPPlusOne)
{
    auto s = SharerList::makeAckwise(2);
    s.add(0);
    s.add(1);
    EXPECT_FALSE(s.overflowed());
    s.add(2);
    EXPECT_TRUE(s.overflowed());
    EXPECT_EQ(s.count(), 3u);
    // Pointer-resident identities survive; the third is untracked.
    EXPECT_TRUE(s.contains(0));
    EXPECT_TRUE(s.contains(1));
    EXPECT_FALSE(s.contains(2));
}

TEST(Ackwise, OverflowCountsFurtherAdds)
{
    auto s = SharerList::makeAckwise(2);
    for (CoreId c = 0; c < 10; ++c)
        s.add(c);
    EXPECT_EQ(s.count(), 10u);
    EXPECT_TRUE(s.overflowed());
}

TEST(Ackwise, RemoveTrackedInExactMode)
{
    auto s = SharerList::makeAckwise(4);
    s.add(1);
    s.add(2);
    s.remove(1);
    EXPECT_EQ(s.count(), 1u);
    EXPECT_FALSE(s.contains(1));
    EXPECT_TRUE(s.contains(2));
}

TEST(Ackwise, RemoveUntrackedInOverflowDecrements)
{
    auto s = SharerList::makeAckwise(2);
    s.add(0);
    s.add(1);
    s.add(2); // overflow; core 2 untracked
    s.remove(2);
    EXPECT_EQ(s.count(), 2u);
    EXPECT_TRUE(s.overflowed()) << "identities are lost until empty";
}

TEST(Ackwise, OverflowClearsWhenEmpty)
{
    auto s = SharerList::makeAckwise(2);
    s.add(0);
    s.add(1);
    s.add(2);
    s.remove(0);
    s.remove(1);
    s.remove(2);
    EXPECT_EQ(s.count(), 0u);
    EXPECT_FALSE(s.overflowed());
    // Exact mode works again.
    s.add(9);
    EXPECT_TRUE(s.contains(9));
    EXPECT_FALSE(s.overflowed());
}

TEST(Ackwise, ClearResets)
{
    auto s = SharerList::makeAckwise(2);
    s.add(0);
    s.add(1);
    s.add(2);
    s.clear();
    EXPECT_EQ(s.count(), 0u);
    EXPECT_FALSE(s.overflowed());
    EXPECT_TRUE(s.tracked().empty());
}

TEST(Ackwise, ForEachTrackedVisitsPointerResidents)
{
    auto s = SharerList::makeAckwise(3);
    s.add(5);
    s.add(9);
    auto t = s.tracked();
    ASSERT_EQ(t.size(), 2u);
    EXPECT_NE(std::find(t.begin(), t.end(), 5), t.end());
    EXPECT_NE(std::find(t.begin(), t.end(), 9), t.end());
}

TEST(Ackwise, ReusesFreedSlot)
{
    auto s = SharerList::makeAckwise(2);
    s.add(0);
    s.add(1);
    s.remove(0);
    s.add(2); // slot freed by 0
    EXPECT_FALSE(s.overflowed());
    EXPECT_TRUE(s.contains(2));
    EXPECT_EQ(s.count(), 2u);
}

TEST(FullMap, NeverOverflows)
{
    auto s = SharerList::makeFullMap(128);
    for (CoreId c = 0; c < 128; ++c)
        s.add(c);
    EXPECT_EQ(s.count(), 128u);
    EXPECT_FALSE(s.overflowed());
    for (CoreId c = 0; c < 128; ++c)
        EXPECT_TRUE(s.contains(c));
}

TEST(FullMap, AddRemove)
{
    auto s = SharerList::makeFullMap(64);
    s.add(63);
    s.add(0);
    s.add(63);
    EXPECT_EQ(s.count(), 2u);
    s.remove(63);
    EXPECT_FALSE(s.contains(63));
    EXPECT_TRUE(s.contains(0));
    EXPECT_EQ(s.count(), 1u);
}

TEST(FullMap, TrackedListsAllSharers)
{
    auto s = SharerList::makeFullMap(70);
    s.add(0);
    s.add(64);
    s.add(69);
    auto t = s.tracked();
    ASSERT_EQ(t.size(), 3u);
    EXPECT_EQ(t[0], 0);
    EXPECT_EQ(t[1], 64);
    EXPECT_EQ(t[2], 69);
}

TEST(FullMap, IsFullMapFlag)
{
    EXPECT_TRUE(SharerList::makeFullMap(4).isFullMap());
    EXPECT_FALSE(SharerList::makeAckwise(4).isFullMap());
}

TEST(SharerListStorage, WideOrganizationsSpillAndCopy)
{
    // Past the inline capacity (p > 4 pointers, > 64 full-map cores)
    // the list keeps its ids in an owned spill buffer; copies are
    // deep and clear() keeps the organization.
    auto a = SharerList::makeAckwise(6);
    for (CoreId c : {9, 2, 7, 5, 3})
        a.add(c);
    EXPECT_FALSE(a.overflowed());
    const SharerList a2 = a;
    a.remove(7);
    EXPECT_EQ(a2.tracked(), (std::vector<CoreId>{2, 3, 5, 7, 9}));
    EXPECT_EQ(a.tracked(), (std::vector<CoreId>{2, 3, 5, 9}));
    a.add(11);
    a.add(12);
    EXPECT_FALSE(a.overflowed());
    a.add(13); // the seventh sharer
    EXPECT_TRUE(a.overflowed());
    a.clear();
    EXPECT_EQ(a.count(), 0u);
    for (CoreId c = 0; c < 6; ++c)
        a.add(c);
    EXPECT_FALSE(a.overflowed()) << "capacity survives clear()";

    auto f = SharerList::makeFullMap(200);
    EXPECT_FALSE(f.contains(150)) << "unallocated spill reads empty";
    f.add(150);
    f.add(3);
    SharerList f2 = SharerList::makeAckwise(4);
    f2 = f;
    f.clear();
    EXPECT_EQ(f.count(), 0u);
    EXPECT_FALSE(f.contains(150));
    EXPECT_TRUE(f2.isFullMap());
    EXPECT_EQ(f2.tracked(), (std::vector<CoreId>{3, 150}));
}

// ---------------------------------------------------------------------------
// Directory footprint: every L2 line of the system carries an L2Meta
// plus its classifier records, so their size is the simulator's
// largest host-memory item (docs/ARCHITECTURE.md, "Directory
// storage").
// ---------------------------------------------------------------------------

TEST(DirectoryFootprint, DefaultConfigWithin128BytesPerLine)
{
    const SystemConfig cfg; // Table 1: 64 cores, ACKwise_4, Limited_3
    const LocalityClassifier cls(cfg);
    EXPECT_EQ(cls.recordsPerLine(), 3u);
    const std::size_t per_line =
        sizeof(L2Meta) + cls.recordsPerLine() * sizeof(CoreLocality);
    EXPECT_LE(per_line, 128u)
        << "L2Meta " << sizeof(L2Meta) << " B + records "
        << cls.recordsPerLine() << " x " << sizeof(CoreLocality)
        << " B";
}

/** 4-core system whose L2 slices hold 256 lines each. */
SystemConfig
smallSystem()
{
    SystemConfig c;
    c.numCores = 4;
    c.meshWidth = 2;
    c.clusterSize = 2;
    c.numMemControllers = 2;
    c.l1iSizeKB = 1;
    c.l1dSizeKB = 2;
    c.l2SizeKB = 16;
    return c;
}

TEST(DirectoryFootprint, RecordArenaSizedByClassifier)
{
    for (const auto kind :
         {ClassifierKind::Limited, ClassifierKind::Complete,
          ClassifierKind::Timestamp, ClassifierKind::AlwaysPrivate}) {
        SystemConfig cfg = smallSystem();
        cfg.classifierKind = kind;
        Multicore m(cfg);
        const L2Cache &l2 = m.tile(1).l2;
        EXPECT_EQ(l2.recordsPerLine(),
                  m.classifier().recordsPerLine());
        // Slot i's records are the i-th slice of one arena.
        const auto e0 = l2.entryAt(0, 0);
        const auto e1 = l2.entryAt(0, 1);
        EXPECT_EQ(e1.records().data(),
                  e0.records().data() + l2.recordsPerLine());
    }
}

TEST(DirectoryFootprint, FillsAndRefillsDoNotAllocatePerLine)
{
    // Core 0 reads twice as many distinct lines as its (home) L2 slice
    // holds, twice over. The first pass fills every line once; the
    // second pass finds each line evicted and refills it. With the
    // directory state in fixed-size per-slot storage, neither pass
    // allocates per line (the first only grows the simulator's
    // address-keyed tables a logarithmic number of times), and the
    // refill pass does not allocate at all.
    const SystemConfig cfg = smallSystem();
    Multicore m(cfg);
    m.setFunctionalChecks(false);
    const std::uint32_t lines = 2 * cfg.l2Sets() * cfg.l2Assoc;
    const Addr base = Addr{1} << 33;
    auto pass = [&] {
        const std::uint64_t before = gAllocations.load();
        for (std::uint32_t i = 0; i < lines; ++i)
            m.testAccess(0, base + Addr{i} * cfg.lineSize, false);
        return gAllocations.load() - before;
    };
    const std::uint64_t first = pass();
    const std::uint64_t fills_before = m.tile(0).l2.validCount();
    const std::uint64_t refill = pass();
    EXPECT_EQ(fills_before, cfg.l2Sets() * cfg.l2Assoc);
    EXPECT_LT(first, lines / 8) << first << " allocations for " << lines
                                << " first-touch fills";
    EXPECT_EQ(refill, 0u);
}


// ---------------------------------------------------------------------------
// HolderVec: the small-buffer, grant-ordered core-id set behind
// L2Meta::holders.
// ---------------------------------------------------------------------------

TEST(SmallCoreVec, HolderFlavorPreservesGrantOrder)
{
    // Invalidation fan-out unicasts holders in grant order; with link
    // contention the order shifts ack timing, so the holder flavor
    // must never sort (protocol/core_vec.hh).
    HolderVec v;
    v.insert(9);
    v.insert(3);
    v.insert(6);
    EXPECT_EQ(v[0], 9);
    EXPECT_EQ(v[1], 3);
    EXPECT_EQ(v[2], 6);
    EXPECT_TRUE(v.erase(3));
    EXPECT_EQ(v[0], 9);
    EXPECT_EQ(v[1], 6);
    EXPECT_TRUE(v.contains(9));
    EXPECT_FALSE(v.contains(3));
}

TEST(SmallCoreVec, SpillsPastInlineCapacityAndClears)
{
    for (const bool front_heavy : {false, true}) {
        HolderVec v;
        const std::uint32_t n = HolderVec::kInlineCap + 5;
        for (std::uint32_t i = 0; i < n; ++i)
            v.insert(static_cast<CoreId>(front_heavy ? n - 1 - i : i));
        EXPECT_EQ(v.size(), n);
        for (std::uint32_t i = 0; i < n; ++i)
            EXPECT_TRUE(v.contains(static_cast<CoreId>(i)));
        // Erase back below the inline capacity and keep going.
        for (std::uint32_t i = 0; i < 6; ++i)
            EXPECT_TRUE(v.erase(static_cast<CoreId>(i)));
        EXPECT_EQ(v.size(), n - 6);
        EXPECT_FALSE(v.contains(0));
        EXPECT_TRUE(v.contains(static_cast<CoreId>(n - 1)));
        v.clear();
        EXPECT_TRUE(v.empty());
        EXPECT_FALSE(v.contains(7));
    }
}

} // namespace
} // namespace lacc
