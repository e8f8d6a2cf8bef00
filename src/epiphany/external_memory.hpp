// Board SDRAM backing store (the paper's "off-chip SDRAM" holding the full
// 1024x1001 image between FFBP merge iterations).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/assert.hpp"

namespace esarp::ep {

class ExternalMemory {
public:
  explicit ExternalMemory(std::size_t bytes) : store_(bytes) {}

  [[nodiscard]] std::size_t capacity() const { return store_.size(); }
  [[nodiscard]] std::size_t used() const { return cursor_; }

  /// Bytes alloc<T>(n) takes from an 8-byte-aligned cursor, padding
  /// included: a sum of these sizes a store that fits those allocations.
  template <typename T>
  [[nodiscard]] static constexpr std::size_t footprint(std::size_t n) {
    return (n * sizeof(T) + 7) & ~std::size_t{7};
  }

  /// Allocate n objects of T (8-byte aligned) in SDRAM.
  template <typename T>
  std::span<T> alloc(std::size_t n) {
    const std::size_t aligned = (cursor_ + 7) & ~std::size_t{7};
    const std::size_t bytes = n * sizeof(T);
    if (aligned + bytes > store_.size())
      throw ContractViolation("ExternalMemory overflow");
    cursor_ = aligned + bytes;
    return {reinterpret_cast<T*>(store_.data() + aligned), n};
  }

  [[nodiscard]] std::uint32_t offset_of(const void* p) const {
    const auto* b = static_cast<const std::byte*>(p);
    ESARP_EXPECTS(b >= store_.data() && b < store_.data() + store_.size());
    return static_cast<std::uint32_t>(b - store_.data());
  }

  [[nodiscard]] bool owns(const void* p) const {
    const auto* b = static_cast<const std::byte*>(p);
    return b >= store_.data() && b < store_.data() + store_.size();
  }

  void reset() { cursor_ = 0; }

private:
  std::vector<std::byte> store_;
  std::size_t cursor_ = 0;
};

} // namespace esarp::ep
