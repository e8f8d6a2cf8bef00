// FFBP on the simulated Epiphany chip.
//
// Two variants, both of which execute the *same* inner arithmetic as the
// sequential host reference (sar::merge_geometry / sar::sample_child), so
// the produced image is bit-identical to sar::ffbp with equal options:
//
//  - sequential (1 core): the complete algorithm on one core, all level
//    data in off-chip SDRAM accessed with blocking per-pixel reads — the
//    paper's "Sequential on Epiphany" Table-I row, whose slowdown comes
//    from SDRAM read stalls.
//  - SPMD (up to 16 cores): the paper's parallel version. The output image
//    of each merge level is partitioned into row slices; every core
//    prefetches (DMA) the two predicted contributing child rows into the
//    two upper local-memory banks (16,016 bytes at paper size — exactly
//    the figure in Section V-B), falls back to blocking SDRAM reads when a
//    pixel's contribution lies outside the prefetched rows (the paper's
//    "in later iterations it still requires contributing data to be read
//    from the external memory"), and writes finished rows back to SDRAM
//    with posted writes. A barrier separates merge iterations.
#pragma once

#include <cstddef>
#include <vector>

#include "common/array2d.hpp"
#include "common/types.hpp"
#include "epiphany/energy.hpp"
#include "epiphany/machine.hpp"
#include "autofocus/integrated.hpp"
#include "fault/injector.hpp"
#include "sar/ffbp.hpp"
#include "sar/params.hpp"
#include "telemetry/metrics.hpp"

namespace esarp::core {

struct FfbpMapOptions {
  int n_cores = 16;      ///< participating cores (1 == sequential mapping)
  bool prefetch = true;  ///< DMA child-row prefetch into local banks
  /// Double-buffer the child-row prefetch: the next row's DMA overlaps the
  /// current row's compute. Requires `prefetch` and TWO rows per data bank
  /// — i.e. n_range <= bank_size / (2 * sizeof(cf32)) = 512 at the default
  /// 8 KB banks. At the paper's 1001-bin rows this is physically
  /// impossible within the E16G3's four-bank budget (the allocator rejects
  /// it), which is presumably why the paper's implementation is
  /// single-buffered.
  bool double_buffer = false;
  sar::FfbpOptions algo; ///< interpolation kernel / phase compensation
  /// When set, the chip also runs the paper's Fig.-4 autofocus loop: at
  /// each merge level >= autofocus->first_level the cores estimate the
  /// per-pair flight-path shifts (dividing the pairs among themselves,
  /// streaming the contributing child images from SDRAM) and the merges
  /// apply the gated compensations. `algo` is overridden by
  /// autofocus->ffbp so the result is bit-identical to the host
  /// af::ffbp_with_autofocus. The pointee must outlive the run.
  const af::IntegratedOptions* autofocus = nullptr;
  /// Externally owned tracer handed to the Machine (see Machine's
  /// shared_tracer parameter). Enable it before the run to get named
  /// merge-iteration / dma-prefetch / criterion-block spans and the
  /// ext-port counter tracks. Must outlive the run.
  ep::Tracer* tracer = nullptr;
  /// Nonzero arms the scheduler watchdog: a run exceeding this many
  /// simulated cycles throws ep::WatchdogExpired with per-core
  /// diagnostics instead of spinning (useful for fault campaigns that
  /// might livelock a misconfigured recovery policy).
  ep::Cycles max_cycles = 0;
};

struct LevelPrefetchStats {
  std::size_t level = 0;
  std::uint64_t local_hits = 0;  ///< child fetches served from local banks
  std::uint64_t ext_misses = 0;  ///< blocking SDRAM fetches
  [[nodiscard]] double hit_rate() const {
    const auto total = local_hits + ext_misses;
    return total != 0 ? static_cast<double>(local_hits) /
                            static_cast<double>(total)
                      : 1.0;
  }
};

struct FfbpSimResult {
  Array2D<cf32> image; ///< final full-aperture polar image
  ep::Cycles cycles = 0;
  double seconds = 0.0;
  ep::PerfReport perf;
  ep::EnergyReport energy;
  /// Time-resolved power trace + span-level energy attribution, filled
  /// when the run's ChipConfig::power enabled the sampler; power.enabled
  /// is false otherwise (power.hpp).
  ep::PowerReport power;
  std::vector<LevelPrefetchStats> prefetch_stats; ///< one entry per level
  /// Applied autofocus corrections (empty unless options.autofocus set).
  std::vector<af::MergeCorrection> corrections;
  /// Snapshot of the machine's telemetry registry after the run: ext-port
  /// stall histograms, barrier wait/imbalance, per-link NoC traffic, plus
  /// per-level prefetch hit/miss counters (`ffbp.prefetch.*{level=N}`).
  telemetry::MetricsRegistry metrics;
  /// Fault-campaign totals (all zero unless ChipConfig::faults is enabled
  /// — see docs/fault-injection.md). `faults.schedule_hash` is the
  /// reproducibility witness: equal seeds must give equal hashes.
  fault::FaultSummary faults;
  /// True when the campaign degraded the output (fail-stopped cores or
  /// dropped autofocus pairs): the image is then an approximation of the
  /// fault-free result, not bit-identical to it. Recovered transfer faults
  /// (retries) alone never set this — retried data is verified exact.
  bool degraded = false;
};

/// Run FFBP on the simulated chip with the given mapping.
[[nodiscard]] FfbpSimResult run_ffbp_epiphany(const Array2D<cf32>& data,
                                              const sar::RadarParams& p,
                                              const FfbpMapOptions& opt = {},
                                              ep::ChipConfig cfg = {});

/// Convenience: the paper's "Sequential on Epiphany" configuration
/// (one core, no prefetch).
[[nodiscard]] inline FfbpSimResult
run_ffbp_sequential_epiphany(const Array2D<cf32>& data,
                             const sar::RadarParams& p,
                             sar::FfbpOptions algo = {},
                             ep::ChipConfig cfg = {}) {
  FfbpMapOptions opt;
  opt.n_cores = 1;
  opt.prefetch = false;
  opt.algo = algo;
  return run_ffbp_epiphany(data, p, opt, cfg);
}

} // namespace esarp::core
