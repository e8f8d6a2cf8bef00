#include "telemetry/metrics.hpp"

#include <algorithm>
#include <array>

#include "common/assert.hpp"
#include "common/json.hpp"

namespace esarp::telemetry {

Histogram::Histogram(std::vector<double> edges) : edges_(std::move(edges)) {
  ESARP_EXPECTS(!edges_.empty());
  ESARP_EXPECTS(std::is_sorted(edges_.begin(), edges_.end()));
  for (std::size_t i = 1; i < edges_.size(); ++i)
    ESARP_EXPECTS(edges_[i - 1] < edges_[i]); // strictly ascending
  counts_.assign(edges_.size() + 1, 0);
}

void Histogram::observe(double x) {
  // First bucket whose upper edge admits x (bucket i: x <= edges[i]). Most
  // observations are 0-cycle waits, so bucket 0 is tested before any
  // search; NaN lands there too, as it does with std::lower_bound.
  std::size_t bucket = 0;
  if (x > edges_.front())
    bucket = static_cast<std::size_t>(
        std::lower_bound(edges_.begin() + 1, edges_.end(), x) -
        edges_.begin());
  ++counts_[bucket];
  if (count_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  sum_ += x;
}

std::string labeled(std::string_view name,
                    std::initializer_list<Label> labels) {
  constexpr std::size_t kMaxLabels = 8;
  ESARP_EXPECTS(labels.size() != 0 && labels.size() <= kMaxLabels);
  // Insertion sort: a name has a few labels at most.
  std::array<Label, kMaxLabels> sorted;
  std::size_t n = 0;
  std::size_t size = name.size() + 1 + labels.size();
  for (const Label& l : labels) {
    std::size_t i = n++;
    for (; i > 0 && l < sorted[i - 1]; --i) sorted[i] = sorted[i - 1];
    sorted[i] = l;
    size += l.first.size() + 1 + l.second.size();
  }
  std::string out;
  out.reserve(size);
  out += name;
  for (std::size_t i = 0; i < n; ++i) {
    out += i == 0 ? '{' : ',';
    out += sorted[i].first;
    out += '=';
    out += sorted[i].second;
  }
  out += '}';
  return out;
}

const std::vector<double>& cycle_histogram_edges() {
  // Powers of four from 16 cycles to ~4M cycles: wide enough to separate a
  // hit-under-prefetch stall from a full SDRAM gather at any workload size
  // the benches run, small enough to diff by eye.
  static const std::vector<double> edges = {16.0,    64.0,     256.0,
                                            1024.0,  4096.0,   16384.0,
                                            65536.0, 262144.0, 1048576.0,
                                            4194304.0};
  return edges;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  return counters_[name];
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  return gauges_[name];
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      std::vector<double> edges) {
  const auto it = histograms_.find(name);
  if (it != histograms_.end()) return it->second;
  return histograms_.emplace(name, Histogram(std::move(edges))).first->second;
}

Histogram& MetricsRegistry::cycle_histogram(const std::string& name) {
  return histogram(name, cycle_histogram_edges());
}

const Counter* MetricsRegistry::find_counter(const std::string& name) const {
  const auto it = counters_.find(name);
  return it != counters_.end() ? &it->second : nullptr;
}

const Histogram*
MetricsRegistry::find_histogram(const std::string& name) const {
  const auto it = histograms_.find(name);
  return it != histograms_.end() ? &it->second : nullptr;
}

void MetricsRegistry::clear() {
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
}

void MetricsRegistry::write_json(JsonWriter& w) const {
  w.begin_object();
  w.key("counters");
  w.begin_object();
  for (const auto& [name, c] : counters_) w.kv(name, c.value());
  w.end_object();
  w.key("gauges");
  w.begin_object();
  for (const auto& [name, g] : gauges_) w.kv(name, g.value());
  w.end_object();
  w.key("histograms");
  w.begin_object();
  for (const auto& [name, h] : histograms_) {
    w.key(name);
    w.begin_object();
    w.key("edges");
    w.begin_array();
    for (const double e : h.edges()) w.value(e);
    w.end_array();
    w.key("counts");
    w.begin_array();
    for (const std::uint64_t c : h.bucket_counts()) w.value(c);
    w.end_array();
    w.kv("count", h.count());
    w.kv("sum", h.sum());
    w.kv("min", h.min());
    w.kv("max", h.max());
    w.end_object();
  }
  w.end_object();
  w.end_object();
}

} // namespace esarp::telemetry
