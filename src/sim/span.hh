/**
 * @file
 * Span: a non-owning (pointer, length) view of a contiguous array.
 *
 * The cache arenas hand out per-slot slices this way (an L2 line's
 * locality records, cache/set_assoc.hh), and the locality classifiers
 * operate on those slices without knowing where they live. A minimal
 * stand-in for C++20 std::span; the build targets C++17.
 */

#ifndef LACC_SIM_SPAN_HH
#define LACC_SIM_SPAN_HH

#include <cstdint>

namespace lacc {

/** View of @p size() contiguous T starting at data(). */
template <typename T>
class Span
{
  public:
    Span() = default;
    Span(T *data, std::uint32_t size) : data_(data), size_(size) {}

    T *data() const { return data_; }
    std::uint32_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    T *begin() const { return data_; }
    T *end() const { return data_ + size_; }
    T &operator[](std::uint32_t i) const { return data_[i]; }

  private:
    T *data_ = nullptr;
    std::uint32_t size_ = 0;
};

} // namespace lacc

#endif // LACC_SIM_SPAN_HH
