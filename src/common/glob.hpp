// Shell-style wildcard matching for suppression rules and manifest schema
// names.
#pragma once

#include <cstddef>
#include <string_view>

namespace esarp {

/// Whole-string match of `text` against `pattern`, where '*' matches any
/// run of characters and '?' any one character (no brackets, no escapes).
/// Iterative star backtracking: on a mismatch, retry from the last '*'
/// with one more character absorbed.
[[nodiscard]] inline bool glob_match(std::string_view pattern,
                                     std::string_view text) {
  std::size_t p = 0;
  std::size_t t = 0;
  std::size_t star = std::string_view::npos;
  std::size_t mark = 0;
  while (t < text.size()) {
    if (p < pattern.size() && (pattern[p] == '?' || pattern[p] == text[t])) {
      ++p;
      ++t;
    } else if (p < pattern.size() && pattern[p] == '*') {
      star = p++;
      mark = t;
    } else if (star != std::string_view::npos) {
      p = star + 1;
      t = ++mark;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '*') ++p;
  return p == pattern.size();
}

} // namespace esarp
