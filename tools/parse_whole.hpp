// parse_whole — the whole-token number parser that esarp and esarp_compare
// share for their flag values.
#pragma once

#include <charconv>
#include <optional>
#include <string_view>

namespace esarp {

/// The whole of `s` as a T (an integer type or double); nullopt for
/// anything else, trailing characters and values out of T's range
/// included.
template <typename T>
std::optional<T> parse_whole(std::string_view s) {
  T v{};
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, v);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return v;
}

} // namespace esarp
