#include "protocol/sharer_list.hh"

#include <algorithm>

#include "sim/log.hh"

namespace lacc {

SharerList
SharerList::makeAckwise(std::uint32_t pointers)
{
    SharerList s;
    // Core ids are 16-bit, so more slots than that can never fill:
    // clamping leaves the list's behavior unchanged.
    s.capacity_ = static_cast<std::uint16_t>(
        std::min<std::uint32_t>(pointers, kInvalidCore));
    if (s.spills())
        s.store_.spillPtrs = nullptr;
    return s;
}

SharerList
SharerList::makeFullMap(std::uint32_t num_cores)
{
    SharerList s;
    s.fullMap_ = true;
    s.capacity_ = static_cast<std::uint16_t>((num_cores + 63) / 64);
    if (s.spills())
        s.store_.spillBits = nullptr;
    else
        s.store_.bits = 0;
    return s;
}

SharerList &
SharerList::operator=(const SharerList &o)
{
    if (this == &o)
        return *this;
    freeSpill();
    count_ = o.count_;
    size_ = o.size_;
    capacity_ = o.capacity_;
    fullMap_ = o.fullMap_;
    overflowed_ = o.overflowed_;
    store_ = o.store_;
    if (!spills())
        return *this;
    // Deep-copy an allocated spill.
    if (fullMap_ && o.store_.spillBits != nullptr) {
        store_.spillBits = new std::uint64_t[capacity_];
        std::copy_n(o.store_.spillBits, capacity_, store_.spillBits);
    } else if (!fullMap_ && o.store_.spillPtrs != nullptr) {
        store_.spillPtrs = new CoreId[capacity_];
        std::copy_n(o.store_.spillPtrs, size_, store_.spillPtrs);
    }
    return *this;
}

SharerList::~SharerList()
{
    freeSpill();
}

void
SharerList::freeSpill()
{
    if (!spills())
        return;
    if (fullMap_)
        delete[] store_.spillBits;
    else
        delete[] store_.spillPtrs;
}

CoreId *
SharerList::pointersForWrite()
{
    if (!spills())
        return store_.ptrs;
    if (store_.spillPtrs == nullptr)
        store_.spillPtrs = new CoreId[capacity_];
    return store_.spillPtrs;
}

std::uint64_t *
SharerList::mapWordsForWrite()
{
    if (!spills())
        return &store_.bits;
    if (store_.spillBits == nullptr)
        store_.spillBits = new std::uint64_t[capacity_]();
    return store_.spillBits;
}

void
SharerList::add(CoreId core)
{
    if (fullMap_) {
        auto &word = mapWordsForWrite()[core / 64];
        const std::uint64_t mask = 1ULL << (core % 64);
        if (word & mask)
            return;
        word |= mask;
        ++count_;
        return;
    }

    // ACKwise: exact while count <= p.
    if (!overflowed_) {
        const CoreId *p = pointers();
        const std::uint32_t pos = static_cast<std::uint32_t>(
            std::lower_bound(p, p + size_, core) - p);
        if (pos < size_ && p[pos] == core)
            return; // already tracked
        if (size_ < capacity_) {
            CoreId *w = pointersForWrite();
            for (std::uint32_t i = size_; i > pos; --i)
                w[i] = w[i - 1];
            w[pos] = core;
            ++size_;
            ++count_;
            return;
        }
        // Pointer overflow: stop tracking identities, count only.
        overflowed_ = true;
        ++count_;
        return;
    }

    // Overflow mode: identities unknown; conservatively assume the
    // requester is a new sharer (the protocol only calls add() when
    // handing out a copy the core does not already hold).
    ++count_;
}

void
SharerList::remove(CoreId core)
{
    if (count_ == 0)
        panic("SharerList::remove on empty list");
    if (fullMap_) {
        auto &word = mapWordsForWrite()[core / 64];
        const std::uint64_t mask = 1ULL << (core % 64);
        if (!(word & mask))
            panic("full-map remove of non-sharer core %u", core);
        word &= ~mask;
        --count_;
        return;
    }

    const CoreId *p = pointers();
    const std::uint32_t pos = static_cast<std::uint32_t>(
        std::lower_bound(p, p + size_, core) - p);
    if (pos < size_ && p[pos] == core) {
        CoreId *w = pointersForWrite();
        for (std::uint32_t i = pos; i + 1 < size_; ++i)
            w[i] = w[i + 1];
        --size_;
        --count_;
        if (count_ == 0)
            overflowed_ = false;
        return;
    }
    if (!overflowed_)
        panic("ACKwise remove of untracked core %u without overflow", core);
    --count_;
    if (count_ == 0) {
        overflowed_ = false;
        size_ = 0;
    }
}

void
SharerList::clear()
{
    count_ = 0;
    overflowed_ = false;
    size_ = 0;
    if (fullMap_ && mapWords() != nullptr)
        std::fill_n(mapWordsForWrite(), capacity_, std::uint64_t{0});
}

bool
SharerList::contains(CoreId core) const
{
    if (fullMap_) {
        const std::uint64_t *bits = mapWords();
        return bits != nullptr && ((bits[core / 64] >> (core % 64)) & 1);
    }
    const CoreId *p = pointers();
    return std::binary_search(p, p + size_, core);
}

std::vector<CoreId>
SharerList::tracked() const
{
    std::vector<CoreId> out;
    forEachTracked([&](CoreId c) { out.push_back(c); });
    return out;
}

} // namespace lacc
