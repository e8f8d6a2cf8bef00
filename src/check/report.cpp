#include "check/report.hpp"

#include <fstream>
#include <sstream>

#include "common/assert.hpp"
#include "common/glob.hpp"
#include "common/json.hpp"

namespace esarp::check {

std::vector<std::string>
load_suppressions(const std::filesystem::path& path) {
  std::ifstream in(path);
  if (!in)
    throw ContractViolation("cannot read suppression file: " + path.string());
  std::vector<std::string> rules;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    // Trim whitespace.
    const auto b = line.find_first_not_of(" \t\r");
    if (b == std::string::npos) continue;
    const auto e = line.find_last_not_of(" \t\r");
    line = line.substr(b, e - b + 1);
    if (line.empty() || line[0] == '#') continue;
    const auto colon = line.find(':');
    if (colon == std::string::npos || colon == 0)
      throw ContractViolation("malformed suppression (want kind:glob) at " +
                              path.string() + ":" + std::to_string(lineno));
    rules.push_back(line);
  }
  return rules;
}

bool suppression_matches(const std::string& rule, Hazard kind,
                         const std::string& message) {
  const auto colon = rule.find(':');
  ESARP_EXPECTS(colon != std::string::npos);
  const std::string_view rule_kind(rule.data(), colon);
  if (rule_kind != "*" && rule_kind != to_string(kind)) return false;
  return glob_match(std::string_view(rule).substr(colon + 1), message);
}

void write_console_report(std::ostream& os,
                          const std::vector<Diagnostic>& diags,
                          std::size_t dropped) {
  std::size_t suppressed = 0;
  for (const Diagnostic& d : diags)
    if (d.suppressed) ++suppressed;
  // Build the whole report first and emit it with one stream write, so
  // concurrent finalizers (ESARP_JOBS > 1 sweeps) never interleave lines.
  std::ostringstream buf;
  buf << "==esarp-check== " << diags.size() << " hazard diagnostic(s)";
  if (suppressed > 0) buf << " (" << suppressed << " suppressed)";
  if (dropped > 0) buf << ", " << dropped << " dropped past the cap";
  buf << ":\n";
  for (const Diagnostic& d : diags)
    buf << "==esarp-check==   " << d.format()
        << (d.suppressed ? "  [suppressed]" : "") << "\n";
  os << buf.str();
}

void write_json_report(const std::filesystem::path& path,
                       const std::vector<Diagnostic>& diags,
                       std::size_t dropped) {
  std::ofstream out(path);
  if (!out)
    throw ContractViolation("cannot write check report: " + path.string());
  JsonWriter w(out);
  w.begin_object();
  w.kv("schema", "esarp-check-report/1");
  w.kv("dropped", static_cast<std::uint64_t>(dropped));
  w.key("diagnostics");
  w.begin_array();
  for (const Diagnostic& d : diags) {
    w.begin_object();
    w.kv("kind", to_string(d.kind));
    w.kv("core", d.core);
    w.kv("cycle", static_cast<std::uint64_t>(d.cycle));
    w.kv("span", d.span);
    w.kv("message", d.message);
    w.kv("suppressed", d.suppressed);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  ESARP_ENSURES(w.done());
}

} // namespace esarp::check
