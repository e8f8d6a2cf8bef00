// Board SDRAM backing store (the paper's "off-chip SDRAM" holding the full
// 1024x1001 image between FFBP merge iterations).
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <span>

#include "common/assert.hpp"

namespace esarp::ep {

class ExternalMemory {
public:
  /// A store of `bytes`, from malloc: bytes no alloc<T>() hands out are
  /// never written, so SDRAM a run never allocates costs no host time.
  /// Throws std::bad_alloc when the host cannot provide it; a zero-byte
  /// store is valid.
  explicit ExternalMemory(std::size_t bytes)
      : store_(unzeroed(bytes)), size_(bytes) {}

  [[nodiscard]] std::size_t capacity() const { return size_; }
  [[nodiscard]] std::size_t used() const { return cursor_; }

  /// Bytes alloc<T>(n) takes from an 8-byte-aligned cursor, padding
  /// included: a sum of these sizes a store that fits those allocations.
  template <typename T>
  [[nodiscard]] static constexpr std::size_t footprint(std::size_t n) {
    return (n * sizeof(T) + 7) & ~std::size_t{7};
  }

  /// Allocate n objects of T (8-byte aligned) in SDRAM, zeroed.
  template <typename T>
  std::span<T> alloc(std::size_t n) {
    const std::span<T> s = alloc_for_overwrite<T>(n);
    std::memset(static_cast<void*>(s.data()), 0, s.size_bytes());
    return s;
  }

  /// alloc<T>(n) without the zeroing, at the offset alloc<T>(n) would
  /// return: for a span the caller writes in full before anything reads
  /// it. Its bytes are whatever the host heap held there.
  template <typename T>
  std::span<T> alloc_for_overwrite(std::size_t n) {
    const std::size_t aligned = (cursor_ + 7) & ~std::size_t{7};
    const std::size_t bytes = n * sizeof(T);
    if (aligned + bytes > size_)
      throw ContractViolation("ExternalMemory overflow");
    cursor_ = aligned + bytes;
    return {reinterpret_cast<T*>(store_.get() + aligned), n};
  }

  [[nodiscard]] std::uint32_t offset_of(const void* p) const {
    ESARP_EXPECTS(owns(p));
    return static_cast<std::uint32_t>(static_cast<const std::byte*>(p) -
                                      store_.get());
  }

  [[nodiscard]] bool owns(const void* p) const {
    const auto* b = static_cast<const std::byte*>(p);
    return b >= store_.get() && b < store_.get() + size_;
  }

private:
  struct Free {
    void operator()(std::byte* p) const { std::free(p); }
  };
  using Store = std::unique_ptr<std::byte[], Free>;

  static Store unzeroed(std::size_t bytes) {
    // One byte at least: malloc(0) may return null.
    void* p = std::malloc(bytes == 0 ? 1 : bytes);
    if (p == nullptr) throw std::bad_alloc();
    return Store(static_cast<std::byte*>(p));
  }

  Store store_;
  std::size_t size_;
  std::size_t cursor_ = 0;
};

} // namespace esarp::ep
