/**
 * @file
 * Directory sharer tracking: ACKwise_p limited directory and a
 * full-map bit-vector baseline (§3.1).
 *
 * ACKwise_p keeps p hardware pointers. While the sharer count is <= p
 * it behaves like a full-map directory (exact identities). When the
 * count exceeds p it stops tracking identities and only maintains the
 * number of sharers; exclusive requests must then broadcast the
 * invalidation, but acknowledgements are expected only from the actual
 * sharers (the tracked count). Identities cannot be recovered until
 * the line is fully invalidated.
 *
 * Storage: one SharerList lives in every L2 line's metadata, so it is
 * 16 bytes with no std::vector member. ACKwise pointers (p <= 4) and a
 * full map of <= 64 cores fit inline; a larger organization keeps its
 * pointers or bit vector in a single owned spill buffer, allocated on
 * the list's first add() and kept across clear().
 */

#ifndef LACC_PROTOCOL_SHARER_LIST_HH
#define LACC_PROTOCOL_SHARER_LIST_HH

#include <cstdint>
#include <vector>

#include "sim/types.hh"

namespace lacc {

/** Sharer-tracking metadata of one directory entry. */
class SharerList
{
  public:
    /** ACKwise pointers stored inline. */
    static constexpr std::uint32_t kInlinePointers = 4;
    /** Full-map cores covered by the inline bit-vector word. */
    static constexpr std::uint32_t kInlineMapCores = 64;

    /** Construct an ACKwise list with @p pointers slots. */
    static SharerList makeAckwise(std::uint32_t pointers);

    /** Construct a full-map list over @p num_cores cores. */
    static SharerList makeFullMap(std::uint32_t num_cores);

    /** An ACKwise list with no pointers (every sharer overflows). */
    SharerList() = default;

    /** Copies the organization and the sharers. */
    SharerList(const SharerList &o) { *this = o; }
    SharerList &operator=(const SharerList &o);
    ~SharerList();

    /** Add a sharer (idempotent). */
    void add(CoreId core);

    /**
     * Remove a sharer (eviction/invalidation ack). In ACKwise overflow
     * mode an untracked core only decrements the count.
     */
    void remove(CoreId core);

    /** Drop all sharers (after a full invalidation). */
    void clear();

    /** Number of sharers. */
    std::uint32_t count() const { return count_; }

    /**
     * True when identities are no longer tracked and an exclusive
     * request requires a broadcast invalidation. Always false for a
     * full-map list.
     */
    bool overflowed() const { return overflowed_; }

    /**
     * True if @p core is known to be a sharer. In ACKwise overflow
     * mode only the pointer-resident subset is known; this returns
     * false for untracked sharers (callers must consult overflowed()).
     */
    bool contains(CoreId core) const;

    /** Apply @p fn to each tracked sharer identity, id order. */
    template <typename F>
    void
    forEachTracked(F &&fn) const
    {
        if (fullMap_) {
            const std::uint64_t *bits = mapWords();
            if (bits == nullptr)
                return;
            for (std::uint32_t w = 0; w < capacity_; ++w) {
                std::uint64_t word = bits[w];
                while (word) {
                    const int b = __builtin_ctzll(word);
                    fn(static_cast<CoreId>(w * 64 + b));
                    word &= word - 1;
                }
            }
        } else {
            const CoreId *p = pointers();
            for (std::uint32_t i = 0; i < size_; ++i)
                fn(p[i]);
        }
    }

    /** Tracked identities as a vector (test helper). */
    std::vector<CoreId> tracked() const;

    /** True if constructed as full-map. */
    bool isFullMap() const { return fullMap_; }

  private:
    /** True when the organization does not fit the inline storage. */
    bool
    spills() const
    {
        return fullMap_ ? capacity_ > 1 : capacity_ > kInlinePointers;
    }

    /** ACKwise pointer slots, sorted (null: spill not yet allocated). */
    const CoreId *
    pointers() const
    {
        return spills() ? store_.spillPtrs : store_.ptrs;
    }

    /** Full-map words (null: spill not yet allocated). */
    const std::uint64_t *
    mapWords() const
    {
        return spills() ? store_.spillBits : &store_.bits;
    }

    /** Mutable storage, allocating the spill on first use. */
    CoreId *pointersForWrite();
    std::uint64_t *mapWordsForWrite();

    /** Release an allocated spill buffer. */
    void freeSpill();

    /** Inline storage, or the owned spill buffer when spills(). */
    union Store
    {
        CoreId ptrs[kInlinePointers]; //!< ACKwise, p <= kInlinePointers
        std::uint64_t bits;           //!< full map, <= 64 cores
        CoreId *spillPtrs;            //!< ACKwise, p pointers
        std::uint64_t *spillBits;     //!< full map, capacity_ words
    } store_ = {};
    std::uint16_t count_ = 0;
    std::uint16_t size_ = 0;     //!< ACKwise: pointer-resident ids
    std::uint16_t capacity_ = 0; //!< ACKwise p, or full-map words
    bool fullMap_ = false;
    bool overflowed_ = false;
};

} // namespace lacc

#endif // LACC_PROTOCOL_SHARER_LIST_HH
