// Reporters and suppression matching for the esarp::check hazard sanitizer.
//
// Console reports go to stderr in a TSan-like one-line-per-finding format;
// JSON reports (schema "esarp-check-report/1") are written when
// ChipConfig::check.json_out / ESARP_CHECK_JSON names a path, so CI can
// archive and diff them like run manifests.
//
// Suppression files are line-oriented:
//
//   # comment / blank lines ignored
//   <kind>:<glob>        e.g.  dma-race:*write_ext*child_row*
//   *:<glob>             any hazard kind
//
// where <kind> is a Hazard name (to_string form) and <glob> is matched
// against the diagnostic message with '*' (any run) and '?' (any one
// character). A suppressed diagnostic is still recorded and reported (as
// "suppressed"), but does not fail the run.
#pragma once

#include <filesystem>
#include <ostream>
#include <string>
#include <vector>

#include "check/check.hpp"

namespace esarp::check {

/// Parse a suppression file into "kind:glob" rules. Throws
/// ContractViolation when the file cannot be read or a line is malformed.
[[nodiscard]] std::vector<std::string>
load_suppressions(const std::filesystem::path& path);

/// True when `rule` ("kind:glob") matches a diagnostic of `kind` with
/// message `message`.
[[nodiscard]] bool suppression_matches(const std::string& rule, Hazard kind,
                                       const std::string& message);

/// Human-readable report: one line per diagnostic plus a summary.
void write_console_report(std::ostream& os,
                          const std::vector<Diagnostic>& diags,
                          std::size_t dropped);

/// Machine-readable report (schema "esarp-check-report/1").
void write_json_report(const std::filesystem::path& path,
                       const std::vector<Diagnostic>& diags,
                       std::size_t dropped);

} // namespace esarp::check
