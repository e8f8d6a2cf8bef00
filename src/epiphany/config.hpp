// Chip configuration for the simulated Epiphany manycore.
//
// Default values model the Adapteva Epiphany E16G3 as described in the
// paper's Section III and the E16G3 datasheet (rev 1.0, 2010):
//   - 4x4 mesh of dual-issue RISC cores, 1 GHz max clock
//   - 32 KB local memory per core in four 8 KB banks (512 KB chip total)
//   - eMesh NoC: three separate meshes (on-chip write / off-chip write /
//     read), 4 duplex links per node, XY routing, 1 cycle per hop,
//     8 bytes per cycle per link => 64 GB/s bisection, 512 GB/s aggregate
//   - off-chip eLink: 8 GB/s total
//   - per-core DMA engine: one double word (8 B) per clock cycle
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "fault/plan.hpp"

namespace esarp::ep {

/// Simulated time in core clock cycles.
using Cycles = std::uint64_t;

/// Mesh coordinate (row, col), row 0 at the "north" edge.
struct Coord {
  int row = 0;
  int col = 0;
  friend constexpr bool operator==(Coord, Coord) = default;
};

/// Manhattan distance (number of mesh hops, excluding injection/ejection).
constexpr int hop_distance(Coord a, Coord b) {
  const int dr = a.row > b.row ? a.row - b.row : b.row - a.row;
  const int dc = a.col > b.col ? a.col - b.col : b.col - a.col;
  return dr + dc;
}

/// Configuration of the esarp::check hazard sanitizer (docs/static-analysis.md).
/// Kept here (rather than in src/check/) so ChipConfig can embed it without a
/// dependency cycle; the machinery itself lives in check/check.hpp. The
/// ESARP_CHECK / ESARP_CHECK_SUPPRESS / ESARP_CHECK_JSON / ESARP_CHECK_ABORT
/// environment variables override these fields at Machine construction, so a
/// whole test or bench run can be switched to checked mode without code
/// changes. Checking never alters simulated time: cycle counts, images and
/// run manifests are bit-identical with and without it.
struct CheckOptions {
  bool enabled = false;         ///< hook the sanitizer into the simulation
  bool abort_on_hazard = true;  ///< throw check::CheckFailure at end of run
                                ///< when unsuppressed diagnostics exist
  std::string suppressions;     ///< path to a suppression file ("" = none)
  std::string json_out;         ///< write a JSON report here ("" = console only)
  std::size_t max_diagnostics = 100; ///< cap on recorded diagnostics
};

/// Configuration of the power-telemetry sampler (docs/observability.md).
/// When enabled the Machine attaches an ep::PowerSampler that accumulates
/// per-core activity (busy cycles, issued ops, NoC byte-hops, eLink bytes)
/// into fixed windows of `epoch_cycles` simulated cycles, from which
/// power.hpp derives a time-resolved power trace and span-level energy
/// attribution. Sampling is pure host-side accounting: it never touches the
/// scheduler, so cycle counts, images and manifests are bit-identical with
/// and without it (enforced by tests/test_power.cpp).
struct PowerOptions {
  bool enabled = false;      ///< attach the sampler to the simulation
  Cycles epoch_cycles = 8192; ///< initial sampling window (simulated cycles)
  /// Cap on the number of epochs kept per core. When a run outgrows the
  /// cap the sampler doubles epoch_cycles and folds neighbouring bins
  /// (exact sums, so conservation is unaffected) — long runs cost bounded
  /// memory at proportionally coarser time resolution.
  std::size_t max_epochs = 4096;
};

struct ChipConfig {
  int rows = 4;
  int cols = 4;
  double clock_hz = 1.0e9; ///< paper evaluates at the 1 GHz spec maximum

  // Local memory (per core).
  std::size_t local_mem_bytes = 32 * 1024;
  int local_banks = 4; ///< 4 x 8 KB banks; paper uses the 2 upper for data

  // eMesh NoC.
  Cycles hop_latency = 1;            ///< single-cycle routing per node
  std::size_t link_bytes_per_cycle = 8; ///< 64-bit links @ core clock

  // Off-chip eLink + SDRAM.
  std::size_t elink_bytes_per_cycle = 8; ///< 8 GB/s at 1 GHz
  Cycles ext_read_latency = 20;  ///< round-trip core->eLink->SDRAM->core for a
                                 ///< blocking read transaction (stalls core);
                                 ///< calibrated against the paper's 0.36x
                                 ///< sequential-FFBP slowdown (EXPERIMENTS.md)
  Cycles ext_write_issue = 1;    ///< posted write: single-cycle issue, the
                                 ///< paper's "write without stalling"
  Cycles ext_random_occupancy = 16; ///< SDRAM occupancy of one random-access
                                    ///< (closed-page) transaction: scattered
                                    ///< 8-byte reads from many cores contend
                                    ///< for this, unlike sequential DMA
                                    ///< bursts which stream at eLink rate
  Cycles dma_setup_cycles = 20;  ///< DMA descriptor programming overhead

  // Simulation engine (host-side) knobs — no effect on simulated cycles.
  bool batch_quanta = true;    ///< batched-quantum fast path: pure delays
                               ///< advance the clock inline when no other
                               ///< event can run first (bit-identical, see
                               ///< Scheduler::try_advance_inline and
                               ///< docs/performance.md)

  // Hazard sanitizer (host-side checking layer; no effect on simulated
  // cycles — see CheckOptions above and docs/static-analysis.md).
  CheckOptions check;

  // Fault-injection campaign (docs/fault-injection.md). The default plan
  // is disabled; the Machine builds an injector only when faults.enabled(),
  // so an untouched config simulates exactly as before.
  fault::FaultPlan faults;

  // Power telemetry sampler (host-side accounting layer; no effect on
  // simulated cycles — see PowerOptions above and docs/observability.md).
  PowerOptions power;

  // Derived helpers.
  [[nodiscard]] int core_count() const { return rows * cols; }
  [[nodiscard]] double seconds(Cycles c) const {
    return static_cast<double>(c) / clock_hz;
  }
  [[nodiscard]] Cycles cycles_for_bytes_on_link(std::size_t bytes) const {
    return (bytes + link_bytes_per_cycle - 1) / link_bytes_per_cycle;
  }
  [[nodiscard]] Cycles cycles_for_bytes_on_elink(std::size_t bytes) const {
    return (bytes + elink_bytes_per_cycle - 1) / elink_bytes_per_cycle;
  }
};

/// Energy parameters for the Epiphany chip (65 nm). Calibrated so a fully
/// busy 16-core chip at 1 GHz dissipates ~2 W, the figure the paper takes
/// from the E16G3 datasheet, with fine-grained clock gating making idle
/// cores nearly free (Microprocessor Report, "More Flops, Less Watts").
struct EnergyParams {
  double core_active_pj_per_cycle = 55.0; ///< pipeline+clock tree when busy
  double core_idle_pj_per_cycle = 1.0;    ///< clock-gated core (<2% of active)
  double flop_pj = 18.0;                  ///< per FP issue (FMA counts once)
  double ialu_pj = 6.0;
  double ldst_local_pj = 10.0; ///< per 32-bit local-memory access
  double noc_pj_per_byte_hop = 1.2;
  double elink_pj_per_byte = 32.0; ///< off-chip I/O incl. SDRAM access share
  double chip_static_w = 0.10;     ///< leakage + PLL + always-on fabric
};

} // namespace esarp::ep
