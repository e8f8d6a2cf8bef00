// Scratch-file paths for tests that write files: the system temp directory
// plus the process id, so two suite runs at once (two build directories,
// or a sanitizer run beside a plain one) never open, overwrite or delete
// each other's files.
#pragma once

#include <filesystem>
#include <string>
#include <string_view>

#include <unistd.h>

namespace esarp::tests {

/// `<temp dir>/<pid>_<name>`; the name keeps its extension.
inline std::filesystem::path temp_file(std::string_view name) {
  return std::filesystem::temp_directory_path() /
         std::to_string(::getpid()).append("_").append(name);
}

} // namespace esarp::tests
