/**
 * @file
 * Generic set-associative cache array with true-LRU replacement.
 *
 * Both the private L1 caches and the shared L2 slices are built on this
 * template; they differ only in their per-line metadata payload. Data
 * words (64-bit) are stored per line so the simulator moves real values
 * through the protocol and can be checked functionally, mirroring the
 * paper's use of Graphite's functionally-correct memory system (§4.1).
 *
 * Memory layout: structure-of-arrays. The tag store lives in flat
 * parallel arrays (valid / tag / lastAccess / meta) so the hot scans —
 * find(), victimFor(), hasInvalidWay(), minLastAccess() — touch only
 * the contiguous words they need instead of striding over full
 * entries, and line data lives in one per-cache arena indexed by
 * (set, way), so constructing a cache performs a fixed handful of
 * allocations instead of one heap vector per line. An optional
 * per-slot record arena (the L2 directory's locality-classifier
 * records, protocol/dir_entry.hh) follows the same layout: slot i owns
 * records [i*r, (i+1)*r). Callers address an individual line through
 * the lightweight Entry handle (cache pointer + slot index) returned
 * by find()/victimFor().
 */

#ifndef LACC_CACHE_SET_ASSOC_HH
#define LACC_CACHE_SET_ASSOC_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "sim/log.hh"
#include "sim/span.hh"
#include "sim/types.hh"

namespace lacc {

/** MESI-style state of a line in a private L1 cache. */
enum class L1State : std::uint8_t { Invalid, Shared, Exclusive, Modified };

/**
 * Meta reset applied by SetAssocCache::invalidate. The default is a
 * plain value reset; meta types with per-system configuration (the L2
 * directory meta's sharer organization, protocol/dir_entry.hh)
 * provide an overload found by ADL that clears protocol state while
 * keeping the configuration for the next fill.
 */
template <typename Meta>
inline void
resetCacheMeta(Meta &m)
{
    m = Meta{};
}

/** Human-readable name for an L1State. */
inline const char *
l1StateName(L1State s)
{
    switch (s) {
      case L1State::Invalid: return "I";
      case L1State::Shared: return "S";
      case L1State::Exclusive: return "E";
      case L1State::Modified: return "M";
      default: return "?";
    }
}

/** Record type of a cache without a record arena (the L1s). */
struct NoRecord
{};

/**
 * A set-associative array of cache lines with payload Meta.
 *
 * @tparam Meta     per-line metadata (state machine owned by the caller)
 * @tparam kHashSet if true, the set index is a hash of the line address
 *                  (used by L2 slices, where home interleaving would
 *                  otherwise leave set-index bits degenerate)
 * @tparam Record   element of the per-slot record arena, sized by
 *                  setRecordsPerLine() (empty until then)
 */
template <typename Meta, bool kHashSet = false, typename Record = NoRecord>
class SetAssocCache
{
  public:
    /**
     * Handle to one (set, way) slot of the structure-of-arrays tag
     * store. Copyable and cheap (pointer + index); a
     * default-constructed handle is "null" (find() miss) and tests
     * false. Accessors read/write the cache's parallel arrays; words()
     * exposes this line's wordsPerLine()-sized slice of the data
     * arena and records() its recordsPerLine()-sized slice of the
     * record arena.
     */
    class Entry
    {
      public:
        Entry() = default;

        /** True for a handle that refers to a slot (find() hit). */
        explicit operator bool() const { return c_ != nullptr; }

        /** Handles are equal when they name the same slot. */
        bool operator==(const Entry &o) const
        {
            return c_ == o.c_ && i_ == o.i_;
        }
        bool operator!=(const Entry &o) const { return !(*this == o); }

        bool valid() const { return c_->valid_[i_] != 0; }
        void setValid(bool v) { c_->valid_[i_] = v ? 1 : 0; }

        LineAddr tag() const { return c_->tags_[i_]; }
        void setTag(LineAddr t) { c_->tags_[i_] = t; }

        Cycle lastAccess() const { return c_->lastAccess_[i_]; }
        void setLastAccess(Cycle t) { c_->lastAccess_[i_] = t; }

        Meta &meta() const { return c_->meta_[i_]; }

        /** This line's slice of the data arena (wordsPerLine() long). */
        std::uint64_t *
        words() const
        {
            return c_->words_.data() +
                   static_cast<std::size_t>(i_) * c_->wordsPerLine_;
        }

        std::uint32_t wordsPerLine() const { return c_->wordsPerLine_; }

        /** Copy one line of data (wordsPerLine() words) into the arena. */
        void
        fillWords(const std::uint64_t *src) const
        {
            std::copy_n(src, c_->wordsPerLine_, words());
        }

        /** Zero this line's slice of the arena. */
        void
        clearWords() const
        {
            std::fill_n(words(), c_->wordsPerLine_, std::uint64_t{0});
        }

        /** This line's slice of the record arena. */
        Span<Record>
        records() const
        {
            return Span<Record>(
                c_->records_.data() +
                    static_cast<std::size_t>(i_) * c_->recordsPerLine_,
                c_->recordsPerLine_);
        }

        /** Return this line's records to Record{}. */
        void
        clearRecords() const
        {
            for (Record &r : records())
                r = Record{};
        }

      private:
        friend class SetAssocCache;
        Entry(SetAssocCache *c, std::size_t i) : c_(c), i_(i) {}

        SetAssocCache *c_ = nullptr;
        std::size_t i_ = 0;
    };

    /**
     * @param sets           number of sets (power of two)
     * @param assoc          ways per set
     * @param words_per_line 64-bit words stored per line
     */
    SetAssocCache(std::uint32_t sets, std::uint32_t assoc,
                  std::uint32_t words_per_line)
        : sets_(sets), assoc_(assoc), wordsPerLine_(words_per_line),
          valid_(static_cast<std::size_t>(sets) * assoc, 0),
          tags_(static_cast<std::size_t>(sets) * assoc, 0),
          lastAccess_(static_cast<std::size_t>(sets) * assoc, 0),
          meta_(static_cast<std::size_t>(sets) * assoc),
          words_(static_cast<std::size_t>(sets) * assoc * words_per_line,
                 0)
    {
        if (sets == 0 || (sets & (sets - 1)) != 0)
            fatal("cache sets (%u) must be a power of two", sets);
    }

    std::uint32_t numSets() const { return sets_; }
    std::uint32_t assoc() const { return assoc_; }
    std::uint32_t wordsPerLine() const { return wordsPerLine_; }
    std::uint32_t recordsPerLine() const { return recordsPerLine_; }

    /**
     * Size the record arena to @p r records per slot, every record
     * Record{}. One allocation for the whole cache; called once, by
     * the owner of the record semantics, before the cache is used.
     */
    void
    setRecordsPerLine(std::uint32_t r)
    {
        recordsPerLine_ = r;
        records_.assign(valid_.size() * r, Record{});
    }

    /** Set index for a line address. */
    std::uint32_t
    setIndex(LineAddr line) const
    {
        if constexpr (kHashSet)
            return static_cast<std::uint32_t>(mixLineAddr(line) &
                                              (sets_ - 1));
        else
            return static_cast<std::uint32_t>(line & (sets_ - 1));
    }

    /** @return a handle to the slot holding @p line, or a null handle.
     *  No LRU update. Scans only the tag/valid arrays. */
    Entry
    find(LineAddr line) const
    {
        const std::size_t base =
            static_cast<std::size_t>(setIndex(line)) * assoc_;
        for (std::uint32_t w = 0; w < assoc_; ++w) {
            if (tags_[base + w] == line && valid_[base + w])
                return Entry{self(), base + w};
        }
        return Entry{};
    }

    /**
     * Select the fill victim for @p line: an invalid way if present,
     * else the valid way with the oldest lastAccess (true LRU).
     * The caller is responsible for handling the victim's contents
     * before overwriting (eviction notification, write-back).
     */
    Entry
    victimFor(LineAddr line) const
    {
        const std::size_t base =
            static_cast<std::size_t>(setIndex(line)) * assoc_;
        std::size_t lru = base;
        bool have_lru = false;
        for (std::uint32_t w = 0; w < assoc_; ++w) {
            if (!valid_[base + w])
                return Entry{self(), base + w};
            if (!have_lru ||
                lastAccess_[base + w] < lastAccess_[lru]) {
                lru = base + w;
                have_lru = true;
            }
        }
        return Entry{self(), lru};
    }

    /** @return true if the set holding @p line has an invalid way. */
    bool
    hasInvalidWay(LineAddr line) const
    {
        const std::size_t base =
            static_cast<std::size_t>(setIndex(line)) * assoc_;
        for (std::uint32_t w = 0; w < assoc_; ++w) {
            if (!valid_[base + w])
                return true;
        }
        return false;
    }

    /**
     * Minimum lastAccess among valid lines in the set holding @p line;
     * 0 if the set is empty. Used for the Timestamp check (§3.2): the
     * minimum is communicated to the L2 home on every L1 miss.
     */
    Cycle
    minLastAccess(LineAddr line) const
    {
        const std::size_t base =
            static_cast<std::size_t>(setIndex(line)) * assoc_;
        Cycle min_t = kNeverCycle;
        bool any = false;
        for (std::uint32_t w = 0; w < assoc_; ++w) {
            if (valid_[base + w]) {
                any = true;
                if (lastAccess_[base + w] < min_t)
                    min_t = lastAccess_[base + w];
            }
        }
        return any ? min_t : 0;
    }

    /**
     * Reset an entry to invalid (metadata reset via resetCacheMeta).
     * The slot's data and records are cleared too, so the next fill
     * starts from exactly the state of a never-used slot.
     */
    void
    invalidate(Entry e)
    {
        e.setValid(false);
        e.setTag(0);
        e.setLastAccess(0);
        resetCacheMeta(e.meta());
        e.clearWords();
        e.clearRecords();
    }

    /** Apply @p fn to an Entry handle for every slot (valid or not). */
    template <typename F>
    void
    forEach(F &&fn)
    {
        const std::size_t n = valid_.size();
        for (std::size_t i = 0; i < n; ++i)
            fn(Entry{this, i});
    }

    /** Count of currently valid entries (test helper). */
    std::uint64_t
    validCount() const
    {
        std::uint64_t n = 0;
        for (const auto v : valid_)
            n += v != 0;
        return n;
    }

    /** Handle to the slot at (@p set, @p way). */
    Entry
    entryAt(std::uint32_t set, std::uint32_t way) const
    {
        return Entry{self(),
                     static_cast<std::size_t>(set) * assoc_ + way};
    }

  private:
    /**
     * Handles mutate the arrays through a non-const cache pointer;
     * lookups from a const cache are morally non-mutating (no LRU
     * update), so the const_cast here mirrors the classic
     * const-find-via-non-const idiom without duplicating every scan.
     */
    SetAssocCache *
    self() const
    {
        return const_cast<SetAssocCache *>(this);
    }

    std::uint32_t sets_;
    std::uint32_t assoc_;
    std::uint32_t wordsPerLine_;
    std::uint32_t recordsPerLine_ = 0;

    // Parallel tag-store arrays (index = set * assoc + way).
    std::vector<std::uint8_t> valid_;
    std::vector<LineAddr> tags_;
    std::vector<Cycle> lastAccess_;
    std::vector<Meta> meta_;
    /** Line-data arena: slot i owns words [i*wpl, (i+1)*wpl). */
    std::vector<std::uint64_t> words_;
    /** Record arena: slot i owns records [i*r, (i+1)*r). */
    std::vector<Record> records_;
};

/**
 * Saturation cap of the per-line private utilization counter (finite
 * width in hardware).
 */
constexpr std::uint32_t kPrivateUtilCap = 0xFFFF;

/** Per-line metadata of a private L1 cache (Fig 5 tag extension). */
struct L1Meta
{
    L1State state = L1State::Invalid;
    /**
     * Private utilization counter (Fig 5): number of times the line was
     * used (read or written) since it was brought in. Initialized to 1
     * on fill, incremented on every subsequent hit.
     */
    std::uint32_t privateUtil = 0;
};

/** Private L1 cache (instruction or data). */
using L1Cache = SetAssocCache<L1Meta, false>;

} // namespace lacc

#endif // LACC_CACHE_SET_ASSOC_HH
