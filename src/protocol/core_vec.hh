/**
 * @file
 * HolderVec: the small-buffer core-id set of L2Meta::holders.
 *
 * Holder sets are tiny (typically <= the sharing degree), and one
 * lives in every L2 line's metadata, so the representation is sized
 * for that: up to kInlineCap ids live inline, and a genuinely large
 * set moves to a single owned heap buffer (the spill) that the slot
 * then keeps for reuse — clear() keeps the capacity, so steady-state
 * churn is allocation-free. No std::vector member: the whole object
 * is 24 bytes.
 *
 * Insertion order is preserved (membership is a linear scan) because
 * it is architecturally *visible*: invalidation fan-out unicasts
 * holders in grant order, and with link contention the fan-out order
 * shifts individual ack arrival times. Sorting holders would change
 * modeled timing (and break the bench goldens).
 */

#ifndef LACC_PROTOCOL_CORE_VEC_HH
#define LACC_PROTOCOL_CORE_VEC_HH

#include <algorithm>
#include <cstdint>

#include "sim/types.hh"

namespace lacc {

/** Grant-ordered small-buffer core-id set; see the file header. */
class HolderVec
{
  public:
    /** Ids stored without touching the heap. */
    static constexpr std::uint32_t kInlineCap = 8;

    HolderVec() = default;

    HolderVec(const HolderVec &o) { *this = o; }

    /** Copy the ids, reusing this object's storage when it fits. */
    HolderVec &
    operator=(const HolderVec &o)
    {
        if (this != &o) {
            if (o.size_ > capacity())
                grow(o.size_);
            std::copy_n(o.data(), o.size_, data());
            size_ = o.size_;
        }
        return *this;
    }

    ~HolderVec()
    {
        if (cap_ != 0)
            delete[] spill_;
    }

    std::uint32_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    const CoreId *begin() const { return data(); }
    const CoreId *end() const { return data() + size_; }
    CoreId operator[](std::uint32_t i) const { return data()[i]; }

    /** True if @p c is in the set. */
    bool
    contains(CoreId c) const
    {
        return std::find(begin(), end(), c) != end();
    }

    /**
     * Add @p c at the back (grant order).
     * @return false if it was already present (set semantics).
     */
    bool
    insert(CoreId c)
    {
        if (contains(c))
            return false;
        if (size_ == capacity())
            grow(2 * capacity());
        data()[size_++] = c;
        return true;
    }

    /** Remove @p c. @return false if it was not present. */
    bool
    erase(CoreId c)
    {
        const CoreId *it = std::find(begin(), end(), c);
        if (it == end())
            return false;
        CoreId *d = data();
        for (std::uint32_t i = static_cast<std::uint32_t>(it - d);
             i + 1 < size_; ++i)
            d[i] = d[i + 1];
        --size_;
        return true;
    }

    /** Drop all ids (spill capacity is kept for reuse). */
    void clear() { size_ = 0; }

  private:
    std::uint32_t
    capacity() const
    {
        return cap_ != 0 ? cap_ : kInlineCap;
    }

    CoreId *data() { return cap_ != 0 ? spill_ : inline_; }
    const CoreId *data() const { return cap_ != 0 ? spill_ : inline_; }

    /** Move the ids into a spill buffer of @p cap (> capacity()). */
    void
    grow(std::uint32_t cap)
    {
        CoreId *buf = new CoreId[cap];
        std::copy_n(data(), size_, buf);
        if (cap_ != 0)
            delete[] spill_;
        spill_ = buf;
        cap_ = cap;
    }

    union
    {
        CoreId inline_[kInlineCap] = {}; //!< ids while cap_ == 0
        CoreId *spill_;                  //!< owned buffer of cap_ ids
    };
    std::uint32_t size_ = 0;
    std::uint32_t cap_ = 0; //!< spill capacity; 0 while inline
};

} // namespace lacc

#endif // LACC_PROTOCOL_CORE_VEC_HH
