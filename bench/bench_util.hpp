// Shared helpers for the benchmark harness (one binary per reproduced
// table/figure; see DESIGN.md §4 and EXPERIMENTS.md).
#pragma once

#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>

#include "common/array2d.hpp"
#include "common/format.hpp"
#include "epiphany/machine_metrics.hpp"
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

/// Format a speedup ratio like the paper's Table I ("4.25").
inline std::string speedup(double ref_time, double time) {
  return Table::num(ref_time / time, 2);
}

inline std::string ms(double seconds) {
  return Table::num(seconds * 1e3, 1);
}

} // namespace esarp::bench
