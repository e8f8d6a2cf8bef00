// Shared helpers for the benchmark harness (one binary per reproduced
// table/figure; see DESIGN.md §4 and EXPERIMENTS.md).
#pragma once

#include <algorithm>
#include <charconv>
#include <concepts>
#include <cstdint>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <iomanip>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/array2d.hpp"
#include "common/assert.hpp"
#include "common/csv.hpp"
#include "common/format.hpp"
#include "epiphany/machine_metrics.hpp"
#include "fault/injector.hpp"
#include "common/table.hpp"
#include "common/timer.hpp"
#include "common/types.hpp"
#include "host/sweep_runner.hpp"
#include "sar/params.hpp"
#include "sar/scene.hpp"
#include "telemetry/manifest.hpp"
#include "telemetry/metrics.hpp"

namespace esarp::bench {

/// Directory that benches drop CSV/PGM artefacts into (created on demand).
inline std::filesystem::path out_dir() {
  const char* env = std::getenv("ESARP_BENCH_OUT");
  std::filesystem::path dir = env ? env : "bench_out";
  std::filesystem::create_directories(dir);
  return dir;
}

/// True when the harness should run a reduced-size configuration
/// (ESARP_BENCH_FAST=1). Full paper-size runs are the default.
inline bool fast_mode() {
  const char* env = std::getenv("ESARP_BENCH_FAST");
  return env != nullptr && env[0] == '1';
}

/// The paper's evaluation input: 1024 x 1001 pulse-compressed samples of
/// the six-point-target scene (Fig. 7(a)). In fast mode a 256 x 251
/// geometrically-scaled configuration is used instead.
struct PaperWorkload {
  sar::RadarParams params;
  Array2D<cf32> data;
};

inline PaperWorkload make_paper_workload() {
  PaperWorkload w;
  if (fast_mode()) {
    w.params = sar::test_params(256, 251);
  } else {
    w.params = sar::paper_params();
  }
  std::cerr << "generating " << w.params.n_pulses << "x" << w.params.n_range
            << " six-target raw data...\n";
  w.data = sar::simulate_compressed(w.params, sar::six_target_scene(w.params));
  return w;
}

/// Record the standard workload parameters on a run manifest.
inline void add_workload(telemetry::RunManifest& man,
                         const sar::RadarParams& p) {
  man.add_workload("n_pulses", static_cast<double>(p.n_pulses));
  man.add_workload("n_range", static_cast<double>(p.n_range));
  man.add_workload("fast_mode", fast_mode() ? 1.0 : 0.0);
}

/// ChipConfig with the power sampler switched on. Benches use this for
/// their headline configuration so the manifest carries the time-resolved
/// energy evidence (span attribution, energy_per_pixel). Sampling is
/// zero-perturbation: cycle counts, images and schedule hashes are
/// bit-identical to an unsampled run (docs/observability.md).
inline ep::ChipConfig power_chip(ep::ChipConfig cfg = {}) {
  cfg.power.enabled = true;
  return cfg;
}

/// Record the headline joules-per-pixel figure that CI gates.
inline void add_energy_per_pixel(telemetry::RunManifest& man,
                                 const ep::ChipRun& run, double pixels) {
  man.add_result("energy_per_pixel", run.energy.total_j() / pixels);
}

/// FNV-1a over every autofocus criterion value, pair-major. Benches record
/// it split into two exactly representable doubles
/// (`criteria_checksum_hi`/`_lo`), so a zero-tolerance compare pins every
/// criterion bit.
inline std::uint64_t
criteria_checksum(const std::vector<std::vector<double>>& criteria) {
  std::vector<double> flat;
  for (const auto& row : criteria)
    flat.insert(flat.end(), row.begin(), row.end());
  return fault::FaultInjector::checksum(flat.data(),
                                        flat.size() * sizeof(double));
}

/// Write `man` as `<tool>.manifest.json` in out_dir() and log the path.
/// Every bench calls this once for its headline configuration so
/// tools/esarp_compare can diff runs (see docs/observability.md).
inline std::filesystem::path
write_manifest(const telemetry::RunManifest& man) {
  const std::filesystem::path path =
      out_dir() / (man.tool() + ".manifest.json");
  man.write(path);
  std::cerr << "wrote " << path.string() << "\n";
  return path;
}

/// Worker-thread count for SweepRunner-based benches: ESARP_JOBS when set,
/// else 1 (the deterministic reference schedule; results are identical for
/// any value, only host wall-clock changes).
inline int sweep_jobs() { return host::sweep_jobs_from_env(1); }

/// Record engine throughput on a run manifest (docs/performance.md):
/// `engine_events` (deterministic, regression-checked by esarp_compare's
/// default results threshold) as a result, and the host-side wall-clock /
/// events-per-second / jobs — which legitimately vary run to run — as
/// informational metrics gauges on `reg`. Call before the manifest is
/// written.
inline void add_engine_stats(telemetry::RunManifest& man,
                             telemetry::MetricsRegistry* reg,
                             std::uint64_t events, double wall_seconds,
                             int jobs) {
  // "engine_events" is the per-run count fill_manifest() records; the
  // sweep-level total gets its own key so the two never collide.
  man.add_result("engine_events_total", static_cast<double>(events));
  if (reg != nullptr) {
    reg->gauge("engine.wall_seconds").set(wall_seconds);
    reg->gauge("engine.events_per_second")
        .set(wall_seconds > 0.0 ? static_cast<double>(events) / wall_seconds
                                : 0.0);
    reg->gauge("engine.jobs").set(static_cast<double>(jobs));
  }
}

/// Standard bench entry point: run `body` and turn any escaped exception
/// into a named nonzero exit instead of std::terminate. This matters for
/// sweep benches (SweepRunner rethrows the first worker exception): a
/// throwing sweep point must fail the bench — and therefore CI — rather
/// than abort mid-write and leave a stale or partial manifest behind for
/// esarp_compare to diff against. Manifest writes themselves are atomic
/// (tmp + rename in RunManifest::write), so the last complete artefact
/// survives a failed re-run.
inline int guarded_main(const char* tool, int (*body)()) {
  try {
    return body();
  } catch (const std::exception& e) {
    std::cerr << tool << ": FAILED: " << e.what() << "\n";
    return 1;
  }
}

/// Record a 64-bit hash as two exactly representable doubles,
/// `<key>_hi` and `<key>_lo`, so a zero-tolerance compare pins every bit.
inline void add_hash(telemetry::RunManifest& man, const std::string& key,
                     std::uint64_t hash) {
  man.add_result(std::string(key).append("_hi"),
                 static_cast<double>(hash >> 32));
  man.add_result(std::string(key).append("_lo"),
                 static_cast<double>(hash & 0xffffffffULL));
}

// ---- bench::Report: each number stated once ------------------------------

/// How a column's numbers read on the console: the value times `scale`, to
/// `digits` decimals, then `unit`; or `format` alone. The CSV and the
/// manifest always get the raw value.
struct Show {
  int digits = 2;
  double scale = 1.0;
  const char* unit = "";
  std::string (*format)(double) = nullptr;

  [[nodiscard]] std::string operator()(double v) const {
    if (format != nullptr) return format(v);
    return Table::num(v * scale, digits) + unit;
  }
};

inline constexpr Show kCount{0};
inline constexpr Show kMs{1, 1e3}; ///< seconds shown as milliseconds
inline constexpr Show kPercent{0, 100.0, " %"};
/// A count with thousands separators ("5,877,825").
inline constexpr Show kGrouped{.format = [](double v) {
  return format_cycles(static_cast<std::uint64_t>(v));
}};
inline constexpr Show kBytes{.format = [](double v) {
  return format_bytes(static_cast<std::uint64_t>(v));
}};
inline constexpr Show kPxRate{
    .format = [](double v) { return format_rate(v, "px"); }};
/// Four significant digits, for a column whose rows differ in scale.
inline constexpr Show kSig{.format = [](double v) {
  std::ostringstream os;
  os << std::setprecision(4) << v;
  return os.str();
}};

/// One column of a Sheet, declared once.
struct Column {
  std::string header;  ///< console header
  std::string key;     ///< CSV column name and `results` key suffix
  Show show = {};      ///< console form of its numbers; text shows as is
  bool result = false; ///< a keyed row adds its number to `results`
};
inline constexpr bool kResult = true;

/// One cell: a number, kept raw for the CSV and `results`, or a text.
struct Cell {
  Cell(double v) : num(v) {}
  template <std::integral T> Cell(T v) : num(static_cast<double>(v)) {}
  Cell(std::string s) : text(std::move(s)) {}
  Cell(const char* s) : text(s) {}
  double num = 0.0;
  std::optional<std::string> text;
};

/// `v` in its shortest round-trip form: std::stod gives `v` back.
inline std::string exact(double v) {
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  ESARP_ENSURES(res.ec == std::errc());
  return {buf, res.ptr};
}

/// One console table and the CSV file it is written to, both built from
/// the same rows of raw cells.
class Sheet {
public:
  Sheet(std::string csv, std::string title, std::vector<Column> cols,
        telemetry::RunManifest* man)
      : csv_(std::move(csv)), title_(std::move(title)),
        cols_(std::move(cols)), man_(man) {}

  void row(std::vector<Cell> cells) { row(std::nullopt, std::move(cells)); }

  /// With a key, each declared column's number also lands in the
  /// manifest's `results` as `key + column.key` ("p3." + "cycles").
  void row(const std::optional<std::string>& key, std::vector<Cell> cells) {
    ESARP_EXPECTS(cells.size() == cols_.size());
    ESARP_EXPECTS(!key || man_ != nullptr);
    for (std::size_t i = 0; key && i < cells.size(); ++i) {
      if (!cols_[i].result) continue;
      ESARP_EXPECTS(!cells[i].text);
      man_->add_result(std::string(*key).append(cols_[i].key), cells[i].num);
    }
    rows_.push_back(std::move(cells));
  }

  void note(std::string line) { notes_.push_back(std::move(line)); }

  /// Print the table (a column of text reads left-aligned) and write
  /// `<csv>.csv` into out_dir().
  void write() const {
    Table t(title_);
    std::vector<std::string> header;
    std::vector<std::string> keys;
    std::string align;
    for (std::size_t i = 0; i < cols_.size(); ++i) {
      header.push_back(cols_[i].header);
      keys.push_back(cols_[i].key);
      const bool text =
          std::all_of(rows_.begin(), rows_.end(),
                      [i](const auto& r) { return r[i].text.has_value(); });
      align += text ? 'l' : 'r';
    }
    t.header(std::move(header), align);
    std::vector<std::vector<std::string>> csv;
    for (const std::vector<Cell>& r : rows_) {
      std::vector<std::string> shown;
      std::vector<std::string>& raw = csv.emplace_back();
      for (std::size_t i = 0; i < r.size(); ++i) {
        shown.push_back(r[i].text ? *r[i].text : cols_[i].show(r[i].num));
        raw.push_back(r[i].text ? *r[i].text : exact(r[i].num));
      }
      t.row(std::move(shown));
    }
    for (const std::string& n : notes_) t.note(n);
    t.print(std::cout);
    write_csv(out_dir() / (csv_ + ".csv"), keys, csv);
  }

private:
  std::string csv_;
  std::string title_;
  std::vector<Column> cols_;
  std::vector<std::vector<Cell>> rows_;
  std::vector<std::string> notes_;
  telemetry::RunManifest* man_;
};

/// A bench's report: its sheets, its claims and, for a bench that keeps
/// one, its run manifest. finish() writes each of them once and turns the
/// claims into the exit status.
class Report {
public:
  /// A bench without a manifest; `tool` names its CSV and its claims.
  explicit Report(std::string tool) : tool_(std::move(tool)) {}
  /// A bench whose manifest gets the keyed rows' declared cells and is
  /// written by finish().
  explicit Report(telemetry::RunManifest& man)
      : tool_(man.tool()), man_(&man) {}

  /// A new sheet, written to `<csv>.csv` (the tool's name by default).
  Sheet& sheet(std::string title, std::vector<Column> cols,
               std::string csv = {}) {
    return sheets_.emplace_back(csv.empty() ? tool_ : std::move(csv),
                                std::move(title), std::move(cols), man_);
  }

  /// A claim the run must meet, checked here rather than left to a reader.
  void require(std::string claim, bool ok) {
    claims_.emplace_back(std::move(claim), ok);
  }

  /// Print and write every sheet, write the manifest, and list the claims:
  /// 1 when any failed (each named on stderr), else 0.
  [[nodiscard]] int finish() const {
    for (const Sheet& s : sheets_) s.write();
    if (man_ != nullptr) write_manifest(*man_);
    if (!claims_.empty()) std::cout << "\nclaims:\n";
    int status = 0;
    for (const auto& [claim, ok] : claims_) {
      std::cout << (ok ? "  holds:  " : "  FAILED: ") << claim << '\n';
      if (ok) continue;
      std::cerr << tool_ << ": claim failed: " << claim << '\n';
      status = 1;
    }
    return status;
  }

private:
  std::string tool_;
  telemetry::RunManifest* man_ = nullptr;
  std::deque<Sheet> sheets_;
  std::vector<std::pair<std::string, bool>> claims_;
};

} // namespace esarp::bench
