// Autofocus criterion calculation on the simulated Epiphany chip.
//
// Sequential variant: the whole sweep on one core. The working set (two
// 6x6 complex blocks, 576 bytes) fits comfortably in the local store, so —
// unlike FFBP — the sequential version sees no SDRAM stalls, which is why
// the paper finds its throughput "comparable" to the Intel reference.
//
// MPMD variant (paper Section V-C, Fig. 9): thirteen cores run *different*
// programs connected by on-chip streaming channels:
//
//   per contributing image block (x2):
//     3 range-interpolation cores, one per sliding 4-column window
//       (each receives its input block; the paper notes the input "is also
//       copied to the local memory of the next adjacent core"),
//     3 beam-interpolation cores, window-paired with the range cores;
//   1 shared correlation/summation core producing the criterion (eq. 6)
//     and posting the result to off-chip SDRAM.
//
// The mapping option selects the paper's compact neighbour placement, a
// deliberately scattered placement (the ablation for the paper's claim
// that the custom mapping "avoids transactions with distant cores"), or an
// automatic one computed from the pipeline's channel graph (the paper's
// future-work direction; core/mapping_profiles.hpp).
#pragma once

#include <span>
#include <vector>

#include "common/types.hpp"
#include "core/mapping_profiles.hpp"
#include "epiphany/energy.hpp"
#include "epiphany/machine.hpp"
#include "autofocus/af_params.hpp"
#include "autofocus/workload.hpp"
#include "fault/injector.hpp"
#include "telemetry/metrics.hpp"

namespace esarp::core {

struct AfMapOptions {
  AfPlacement placement = AfPlacement::kCompact;
  std::size_t channel_capacity = 8; ///< FIFO depth in messages
  /// Nonzero arms the scheduler watchdog (ep::WatchdogExpired past this
  /// many simulated cycles), mirroring FfbpMapOptions::max_cycles.
  ep::Cycles max_cycles = 0;
};

struct AfSimResult {
  /// criteria[pair][shift] — identical (same accumulation order) to the
  /// sequential af::criterion_sweep values.
  std::vector<std::vector<double>> criteria;
  ep::Cycles cycles = 0;
  double seconds = 0.0;
  double pixels_per_second = 0.0; ///< paper Table-I throughput metric
  ep::PerfReport perf;
  ep::EnergyReport energy;
  /// Time-resolved power trace + span-level energy attribution, filled
  /// when power sampling was enabled for the run (power.hpp).
  ep::PowerReport power;
  int cores_used = 0;
  /// Snapshot of the machine's telemetry registry after the run (channel
  /// block histograms, per-link NoC traffic, core counters, ...).
  telemetry::MetricsRegistry metrics;
  /// Fault-campaign totals (all zero unless ChipConfig::faults is enabled).
  fault::FaultSummary faults;
  /// True when the campaign degraded the result: a fail-stopped core broke
  /// a window pipeline and the correlator rescored from the surviving
  /// windows (docs/fault-injection.md).
  bool degraded = false;
};

/// Sequential (1-core) sweep over all block pairs.
[[nodiscard]] AfSimResult
run_autofocus_sequential_epiphany(std::span<const af::BlockPair> pairs,
                                  const af::AfParams& p,
                                  ep::ChipConfig cfg = {});

/// 13-core MPMD streaming pipeline over all block pairs.
[[nodiscard]] AfSimResult
run_autofocus_mpmd(std::span<const af::BlockPair> pairs,
                   const af::AfParams& p, const AfMapOptions& opt = {},
                   ep::ChipConfig cfg = {});

} // namespace esarp::core
