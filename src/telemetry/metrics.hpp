// Metrics registry: labeled counters, gauges and fixed-bucket histograms.
//
// The simulator and the SAR mappings publish machine-readable evidence of
// where cycles go — external-memory stall durations, per-link NoC traffic,
// barrier wait imbalance, channel backpressure — into one registry per
// Machine. The registry dumps into the run manifest (manifest.hpp), which
// the esarp_compare regression checker diffs between runs.
//
// Conventions:
//   - Metric names are dot-separated ("ext.read.stall_cycles"); labels are
//     appended in braces via labeled(): "noc.link.bytes{dir=E,node=1_2}".
//   - Counters are monotonically increasing event/byte totals.
//   - Gauges are point-in-time doubles (utilization, hit rates).
//   - Histograms have fixed, ascending bucket edges chosen at creation;
//     bucket i counts observations x with edges[i-1] < x <= edges[i]
//     (bucket 0: x <= edges[0]; last bucket: x > edges.back()).
//
// Lookup is find-or-create; references returned by the registry stay valid
// for the registry's lifetime (node-based map storage). Instrumented
// components cache these references, so the per-event cost is an add or a
// short binary search. That is not free: in a benchmark autofocus_mpmd
// call (13 cores, 208,689 engine events) Histogram::observe takes about
// 5 % of the host time, and all registry updates together 5-6 %
// (SIGPROF samples, docs/performance.md "Power sampler span attribution").
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace esarp {
class JsonWriter;
} // namespace esarp

namespace esarp::telemetry {

/// Monotonic event/byte count.
class Counter {
public:
  void add(std::uint64_t delta = 1) { value_ += delta; }
  [[nodiscard]] std::uint64_t value() const { return value_; }

private:
  std::uint64_t value_ = 0;
};

/// Point-in-time scalar.
class Gauge {
public:
  void set(double v) { value_ = v; }
  [[nodiscard]] double value() const { return value_; }

private:
  double value_ = 0.0;
};

/// Fixed-bucket histogram with running count/sum/min/max.
class Histogram {
public:
  /// `edges` must be non-empty and strictly ascending.
  explicit Histogram(std::vector<double> edges);

  void observe(double x);

  [[nodiscard]] const std::vector<double>& edges() const { return edges_; }
  /// One entry per bucket: edges().size() + 1 (last bucket is overflow).
  [[nodiscard]] const std::vector<std::uint64_t>& bucket_counts() const {
    return counts_;
  }
  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] double sum() const { return sum_; }
  [[nodiscard]] double min() const { return min_; } ///< 0 when empty
  [[nodiscard]] double max() const { return max_; } ///< 0 when empty
  [[nodiscard]] double mean() const {
    return count_ != 0 ? sum_ / static_cast<double>(count_) : 0.0;
  }

private:
  std::vector<double> edges_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Compose a labeled metric name: labeled("noc.link.bytes",
/// {{"mesh","read"},{"dir","E"}}) -> "noc.link.bytes{dir=E,mesh=read}".
/// Labels are sorted so the same set always produces the same name.
[[nodiscard]] std::string
labeled(std::string_view name,
        std::vector<std::pair<std::string, std::string>> labels);

/// Cycle-duration bucket edges shared by the stall/wait histograms so
/// before/after manifests are always bucket-compatible.
[[nodiscard]] const std::vector<double>& cycle_histogram_edges();

class MetricsRegistry {
public:
  /// Find-or-create. References remain valid while the registry lives.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  /// `edges` is used on first creation only; later calls with the same
  /// name return the existing histogram regardless of `edges`.
  Histogram& histogram(const std::string& name, std::vector<double> edges);
  /// Shorthand using cycle_histogram_edges().
  Histogram& cycle_histogram(const std::string& name);

  [[nodiscard]] const std::map<std::string, Counter>& counters() const {
    return counters_;
  }
  [[nodiscard]] const std::map<std::string, Gauge>& gauges() const {
    return gauges_;
  }
  [[nodiscard]] const std::map<std::string, Histogram>& histograms() const {
    return histograms_;
  }

  /// Lookup without creation; nullptr when absent.
  [[nodiscard]] const Counter* find_counter(const std::string& name) const;
  [[nodiscard]] const Histogram* find_histogram(const std::string& name) const;

  /// Total number of distinct metric names across all kinds.
  [[nodiscard]] std::size_t size() const {
    return counters_.size() + gauges_.size() + histograms_.size();
  }
  void clear();

  /// Emit the registry as one JSON object value:
  ///   {"counters":{...},"gauges":{...},
  ///    "histograms":{name:{"edges":[...],"counts":[...],...}}}
  /// The writer must be positioned where a value is expected.
  void write_json(JsonWriter& w) const;

private:
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, Histogram> histograms_;
};

} // namespace esarp::telemetry
