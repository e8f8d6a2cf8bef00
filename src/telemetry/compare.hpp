// Manifest regression checking: the logic behind tools/esarp_compare.
//
// Two run manifests (manifest.hpp) are diffed key by key. Every numeric
// entry under "results" is threshold-checked, and one the current manifest
// lacks is a regression; counters, gauges and histogram summaries under
// "metrics" are reported informationally unless an explicit per-metric
// threshold opts them into checking. The regression
// direction is inferred from the key name: throughput-like quantities
// (utilization, flops, px_per_s, hit_rate) regress downward, everything
// else — times, cycle counts, energy, stalls, bytes — regresses upward.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/json.hpp"

namespace esarp::telemetry {

struct CompareOptions {
  /// Relative threshold applied to every "results" entry (0.05 == 5%).
  double default_threshold = 0.05;
  /// Per-key overrides / opt-ins. Keys are manifest paths relative to the
  /// sections compared: "results.makespan_cycles" or
  /// "metrics.counters.ext.read.bytes" (the metric name may itself contain
  /// dots, so metric overrides match on the full remainder).
  std::map<std::string, double> per_key;
  /// Glob-pattern thresholds (`*` matches any run, `?` one character),
  /// checked in order after per_key and before the default: the first
  /// pattern that matches a key supplies its threshold. A pattern is tried
  /// against the full flattened key ("results.wall_seconds") and, for
  /// convenience, against the key with its section prefix stripped — so
  /// "wall_*" widens every wall-clock result. Patterns that match nothing
  /// are not an error (unlike per_key entries, which must resolve).
  std::vector<std::pair<std::string, double>> noisy_patterns;
  /// Values |base| <= abs_floor on both sides are never flagged (guards
  /// against noisy relative deltas of near-zero quantities).
  double abs_floor = 1e-12;
  /// Built-in noise band for serving-latency keys (docs/serving.md): any
  /// key whose name (after section-prefix stripping) matches `latency_*`
  /// or `slo_*` and that no per_key override or noisy pattern claimed
  /// first is checked at this relative threshold instead of the default.
  /// Latency percentiles are order statistics — one reordered job can move
  /// p99 by a whole service time — so they get a wider band than analytic
  /// results. Direction is still enforced (slo_* regress downward,
  /// latency_* upward). Set to 0.0 (or pin `--noisy-metric 'latency_*=0'`)
  /// when diffing two same-seed runs of a deterministic serve campaign,
  /// which must match exactly.
  double latency_slo_band = 0.10;
};

/// True when a larger value of `key` is an improvement (substring match on
/// the flattened key): throughput-like keys (utilization, flops,
/// throughput, hit_rate, px_per_s / pixels_per_s, speedup,
/// events_per_second, jobs_per_s) and slo_attainment. Everything else —
/// times, cycles, energy, stalls, bytes, and the overload counters
/// jobs_late / jobs_shed — regresses upward.
[[nodiscard]] bool higher_is_better(const std::string& key);

/// True for identity witnesses, which have no better direction: keys
/// naming a checksum or a hash (image checksums, schedule hashes). A
/// change either way past the threshold is a regression.
[[nodiscard]] bool two_sided(const std::string& key);

struct CompareLine {
  std::string key;
  double base = 0.0;
  double current = 0.0;
  double rel_delta = 0.0; ///< (current - base) / |base|; +inf when base == 0
  bool checked = false;   ///< thresholded (vs. informational)
  bool regressed = false;
  double threshold = 0.0; ///< the threshold applied when checked
  /// A key that could not be diffed: a non-finite value, a results key
  /// missing from the current manifest, or an explicitly checked (--metric)
  /// key missing from either manifest or present but not numeric. Counted
  /// as a regression — a silently vanished metric must fail CI, not pass
  /// it — with `problem` naming which side is broken and how.
  bool unusable = false;
  std::string problem;
};

struct CompareReport {
  std::vector<CompareLine> lines;
  std::vector<std::string> notes; ///< structural mismatches (missing keys...)
  int regressions = 0;

  [[nodiscard]] bool ok() const { return regressions == 0; }
  /// Multi-line human-readable diff (regressions first).
  [[nodiscard]] std::string summary(bool verbose = false) const;
};

/// Diff two parsed manifests. Throws ContractViolation when either document
/// is not an esarp manifest object (any "esarp-*-manifest/*" schema: run
/// manifests and serve manifests share the section layout).
[[nodiscard]] CompareReport compare_manifests(const JsonValue& base,
                                              const JsonValue& current,
                                              const CompareOptions& opt = {});

} // namespace esarp::telemetry
