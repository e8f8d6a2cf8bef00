// Chip energy model.
//
// Converts a PerfReport into joules at the prices of kEnergyParams,
// calibrated to the E16G3 datasheet figure the paper cites (~2 W for a
// fully busy chip at 1 GHz, 65 nm). Captures the two mechanisms the paper
// credits for the energy win: fine-grained clock gating (idle cores cost
// almost nothing) and nearest-neighbour signalling (energy proportional to
// byte-hops). compute_energy is the only function that turns a run's
// activity into an EnergyReport: every simulated run and the static cost
// model (analysis::predict_cost) are priced by it.
#pragma once

#include <string>

#include "epiphany/config.hpp"
#include "epiphany/perf.hpp"

namespace esarp::ep {

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

/// The model's one price table. Only energy.cpp and power.cpp read it.
inline constexpr EnergyParams kEnergyParams{};

struct EnergyReport {
  double core_active_j = 0.0;
  double core_idle_j = 0.0;
  double alu_j = 0.0;   ///< per-op FPU/IALU/local-memory energy
  double noc_j = 0.0;
  double elink_j = 0.0;
  double static_j = 0.0;

  [[nodiscard]] double total_j() const {
    return core_active_j + core_idle_j + alu_j + noc_j + elink_j + static_j;
  }
  /// Average power over the run [W].
  double avg_watts = 0.0;

  [[nodiscard]] std::string summary() const;
};

/// Compute the energy of a run. Every core in rep.per_core is charged idle
/// energy for the makespan cycles it was not busy; stalls are clock-gated
/// and cost the idle rate.
EnergyReport compute_energy(const PerfReport& rep);

/// Peak (all cores busy) chip power at the configured clock [W] — the
/// "Estimated Power" column of the paper's Table I (2 W for the E16G3).
double peak_chip_watts(const ChipConfig& cfg);

} // namespace esarp::ep
