#include "telemetry/compare.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <sstream>

#include "common/assert.hpp"
#include "common/glob.hpp"
#include "common/table.hpp"

namespace esarp::telemetry {

bool higher_is_better(const std::string& key) {
  static const char* kGoodUp[] = {"utilization", "flops",   "throughput",
                                  "hit_rate",    "px_per_s", "speedup",
                                  "pixels_per_s", "events_per_second",
                                  "slo_attainment", "jobs_per_s"};
  for (const char* s : kGoodUp)
    if (key.find(s) != std::string::npos) return true;
  // Everything else regresses upward: times, cycles, energy, stalls,
  // bytes — and the overload counters jobs_late and jobs_shed.
  return false;
}

bool two_sided(const std::string& key) {
  return key.find("checksum") != std::string::npos ||
         key.find("hash") != std::string::npos;
}

namespace {

/// The flattened-key section prefixes a convenience pattern may omit.
constexpr const char* kSectionPrefixes[] = {
    "results.", "metrics.counters.", "metrics.gauges.",
    "metrics.histograms."};

/// First noisy pattern matching `key` (full or section-stripped), if any.
std::optional<double> noisy_threshold(const CompareOptions& opt,
                                      const std::string& key) {
  for (const auto& [pattern, threshold] : opt.noisy_patterns) {
    if (glob_match(pattern, key)) return threshold;
    for (const char* prefix : kSectionPrefixes) {
      if (key.rfind(prefix, 0) != 0) continue;
      if (glob_match(pattern, key.substr(std::string(prefix).size())))
        return threshold;
    }
  }
  return std::nullopt;
}

void check_schema(const JsonValue& v, const char* which) {
  // Run manifests ("esarp-run-manifest/1") and serve manifests
  // ("esarp-serve-manifest/1") share the chip/workload/results/metrics
  // layout, so the differ accepts any esarp manifest family.
  const JsonValue* schema = v.find("schema");
  if (schema == nullptr || !schema->is_string() ||
      !glob_match("esarp-*-manifest/*", schema->as_string()))
    throw ContractViolation(std::string(which) +
                            " manifest: missing or unknown \"schema\"");
}

/// The built-in serving-latency band (CompareOptions::latency_slo_band),
/// applied to `latency_*`/`slo_*` keys not claimed by an explicit override.
std::optional<double> latency_slo_threshold(const CompareOptions& opt,
                                            const std::string& key) {
  std::string name = key;
  for (const char* prefix : kSectionPrefixes) {
    if (key.rfind(prefix, 0) == 0) {
      name = key.substr(std::string(prefix).size());
      break;
    }
  }
  if (glob_match("latency_*", name) || glob_match("slo_*", name))
    return opt.latency_slo_band;
  return std::nullopt;
}

/// Flatten one numeric section into key -> value pairs. Entries that should
/// be numbers but are not usable as such — JSON null (how the manifest
/// writer encodes a non-finite double) or a parsed non-finite value — are
/// reported into `bad` instead of being silently skipped: a NaN metric must
/// fail the comparison by name, not pass it by absence.
void flatten_numbers(const JsonValue* obj, const std::string& prefix,
                     std::vector<std::pair<std::string, double>>& out,
                     std::vector<std::string>& bad) {
  if (obj == nullptr || !obj->is_object()) return;
  for (const auto& [k, v] : obj->as_object()) {
    if (v.is_number() && std::isfinite(v.as_number()))
      out.emplace_back(prefix + k, v.as_number());
    else if (v.is_null() || v.is_number())
      bad.push_back(prefix + k);
  }
}

/// Histogram summary scalars worth diffing (count and mean — bucket-level
/// diffs are too noisy to threshold, the full vectors stay in the files).
void flatten_histograms(const JsonValue* obj, const std::string& prefix,
                        std::vector<std::pair<std::string, double>>& out) {
  if (obj == nullptr || !obj->is_object()) return;
  for (const auto& [name, h] : obj->as_object()) {
    const JsonValue* count = h.find("count");
    const JsonValue* sum = h.find("sum");
    if (count == nullptr || !count->is_number()) continue;
    out.emplace_back(prefix + name + ".count", count->as_number());
    if (sum != nullptr && sum->is_number() && count->as_number() > 0)
      out.emplace_back(prefix + name + ".mean",
                       sum->as_number() / count->as_number());
  }
}

/// Record `key` as a regression that could not be diffed, `problem` naming
/// which side is broken and how.
CompareLine& add_unusable(CompareReport& rep, const std::string& key,
                          std::string problem) {
  CompareLine line;
  line.key = key;
  line.unusable = true;
  line.regressed = true;
  line.problem = std::move(problem);
  ++rep.regressions;
  rep.lines.push_back(std::move(line));
  return rep.lines.back();
}

std::vector<std::pair<std::string, double>>
flatten_manifest(const JsonValue& m, std::vector<std::string>& bad) {
  std::vector<std::pair<std::string, double>> out;
  flatten_numbers(m.find("results"), "results.", out, bad);
  flatten_numbers(m.find_path("metrics.counters"), "metrics.counters.", out,
                  bad);
  flatten_numbers(m.find_path("metrics.gauges"), "metrics.gauges.", out, bad);
  flatten_histograms(m.find_path("metrics.histograms"),
                     "metrics.histograms.", out);
  return out;
}

} // namespace

CompareReport compare_manifests(const JsonValue& base,
                                const JsonValue& current,
                                const CompareOptions& opt) {
  check_schema(base, "base");
  check_schema(current, "current");

  CompareReport rep;
  std::vector<std::string> bad_base;
  std::vector<std::string> bad_cur;
  const auto b = flatten_manifest(base, bad_base);
  const auto c = flatten_manifest(current, bad_cur);
  std::map<std::string, double> cur_map(c.begin(), c.end());

  // Non-finite metric values are always a failure, named per key — a run
  // that produced NaN/Inf (written as JSON null) must never read as "no
  // regression" just because the broken key could not be diffed.
  const auto reject_non_finite = [&rep](const std::vector<std::string>& keys,
                                        const char* which) {
    for (const std::string& key : keys)
      add_unusable(rep, key,
                   std::string("non-finite value in ") + which + " manifest");
  };
  reject_non_finite(bad_base, "base");
  reject_non_finite(bad_cur, "current");

  for (const auto& [key, bval] : b) {
    const auto it = cur_map.find(key);
    if (it == cur_map.end()) {
      // Every results key is checked, so one that vanished is a named
      // regression; an unchecked metric is only noted, and an opted-in one
      // is named by the per_key pass below.
      if (key.rfind("results.", 0) == 0 && opt.per_key.count(key) == 0)
        add_unusable(rep, key, "missing in current manifest").checked = true;
      else
        rep.notes.push_back("missing in current: " + key);
      continue;
    }
    const double cval = it->second;
    cur_map.erase(it);

    CompareLine line;
    line.key = key;
    line.base = bval;
    line.current = cval;
    if (bval != 0.0) {
      line.rel_delta = (cval - bval) / std::abs(bval);
    } else {
      line.rel_delta = cval == 0.0
                           ? 0.0
                           : std::numeric_limits<double>::infinity();
    }

    // Threshold resolution: explicit per-key override wins, then the first
    // matching noisy glob pattern, then the built-in latency/slo band;
    // otherwise the default threshold applies to "results" entries only.
    const auto ov = opt.per_key.find(key);
    std::optional<double> threshold;
    if (ov != opt.per_key.end()) {
      threshold = ov->second;
    } else if (const auto noisy = noisy_threshold(opt, key)) {
      threshold = *noisy;
    } else if (const auto band = latency_slo_threshold(opt, key)) {
      threshold = *band;
    } else if (key.rfind("results.", 0) == 0) {
      threshold = opt.default_threshold;
    }

    if (threshold.has_value()) {
      line.checked = true;
      line.threshold = *threshold;
      const bool both_tiny = std::abs(bval) <= opt.abs_floor &&
                             std::abs(cval) <= opt.abs_floor;
      if (!both_tiny) {
        double signed_delta = line.rel_delta;
        if (two_sided(key))
          signed_delta = std::abs(line.rel_delta);
        else if (higher_is_better(key))
          signed_delta = -line.rel_delta;
        if (signed_delta > *threshold) {
          line.regressed = true;
          ++rep.regressions;
        }
      }
    }
    rep.lines.push_back(std::move(line));
  }
  for (const auto& [key, _] : cur_map)
    rep.notes.push_back("missing in base: " + key);

  // Every explicitly checked key must have been diffable from both sides.
  // A key the flattener never produced is either absent from the document
  // or present with a non-numeric value (mistyped) — name the failure
  // instead of silently skipping the check (or throwing mid-diff).
  // `flattened` decides diffability (histogram .count/.mean are synthetic
  // keys with no document path); the raw lookup only refines the message.
  const auto describe = [](const JsonValue& doc, const std::string& key,
                           bool flattened) {
    if (flattened) return std::string("ok");
    const JsonValue* v = doc.find_path(key);
    if (v == nullptr) return std::string("missing");
    return v->is_number() ? std::string("not in a compared section")
                          : std::string("not a number");
  };
  std::set<std::string> base_keys;
  std::set<std::string> cur_keys;
  for (const auto& [key, _] : b) base_keys.insert(key);
  for (const auto& [key, _] : c) cur_keys.insert(key);
  for (const auto& [key, thr] : opt.per_key) {
    const bool in_b = base_keys.count(key) != 0;
    const bool in_c = cur_keys.count(key) != 0;
    if (in_b && in_c) continue;
    CompareLine& line =
        add_unusable(rep, key,
                     "base " + describe(base, key, in_b) + ", current " +
                         describe(current, key, in_c));
    line.checked = true;
    line.threshold = thr;
  }

  // Regressions first, then checked lines, then the informational rest.
  std::stable_sort(rep.lines.begin(), rep.lines.end(),
                   [](const CompareLine& a, const CompareLine& b2) {
                     if (a.regressed != b2.regressed) return a.regressed;
                     return a.checked && !b2.checked;
                   });
  return rep;
}

std::string CompareReport::summary(bool verbose) const {
  std::ostringstream os;
  Table t(regressions == 0 ? "manifest compare: OK"
                           : "manifest compare: " +
                                 std::to_string(regressions) +
                                 " regression(s)");
  t.header({"Key", "Base", "Current", "Delta", "Status"});
  for (const auto& l : lines) {
    if (!verbose && !l.checked && !l.regressed) continue;
    if (l.unusable) {
      t.row({l.key, "-", "-", "-", "FAILED: " + l.problem});
      continue;
    }
    std::string status = "info";
    if (l.checked)
      status = l.regressed
                   ? "REGRESSED (>" + Table::num(l.threshold * 100.0, 1) + "%)"
                   : "ok (<=" + Table::num(l.threshold * 100.0, 1) + "%)";
    const std::string delta =
        std::isfinite(l.rel_delta)
            ? Table::num(l.rel_delta * 100.0, 2) + " %"
            : "new";
    t.row({l.key, Table::num(l.base, 4), Table::num(l.current, 4), delta,
           status});
  }
  for (const auto& n : notes) t.note(n);
  os << t.str();
  return os.str();
}

} // namespace esarp::telemetry
