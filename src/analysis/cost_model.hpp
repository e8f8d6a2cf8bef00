// Analytic cycle + energy prediction over a MappingSpec.
//
// Mirrors the simulator's closed forms instead of re-deriving them:
// compute blocks go through ep::CostModel::cycles call-by-call (so the
// per-call rounding matches), DMA bursts / blocking gathers / posted
// writes use the uncontended ExtPort formulas, channel sends pay the
// cMesh injection cost, and barrier crossings pay the flag round trip.
// Contention is modelled with two corrections the simulator exhibits:
//
//   * port bounds — a phase can never finish before the SDRAM read/write
//     channel has served every byte the phase moves;
//   * the phase-start convoy — barrier-released (or t=0) cores issue
//     their first external read in the same cycle, so the last core in
//     the service order queues behind all the others once per phase.
//
// SPMD mappings sum per-phase makespans (phases are barrier-aligned);
// barrier-free mappings (GBP, the MPMD pipeline) take the slowest core
// plus a pipeline-fill term along the longest channel chain.
//
// Energy is ep::compute_energy itself, run over a PerfReport built from
// the predicted counters of the mapping's cores, so predicted and
// simulated joules share one price table (epiphany/energy.hpp). The
// tier-1 accuracy of all of this against full simulation is pinned in
// tests/test_analysis.cpp and reported in docs/static-analysis.md.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/mapping_spec.hpp"
#include "epiphany/config.hpp"
#include "epiphany/energy.hpp"

namespace esarp::analysis {

/// Predicted timing for one phase group (phases sharing a name).
struct PhasePrediction {
  std::string name;
  Cycles serial_max = 0;       ///< slowest core's uncontended serial time
  Cycles convoy = 0;           ///< phase-start ext-port queueing correction
  Cycles read_port = 0;        ///< total SDRAM read-channel occupancy
  Cycles write_port = 0;       ///< total SDRAM write-channel occupancy
  Cycles barrier_overhead = 0; ///< closing barrier flag round trip
  Cycles makespan = 0;         ///< the phase's contribution to the total
};

/// Predicted per-core totals (comparable to ep::CoreCounters).
struct CorePrediction {
  int id = -1;
  std::string role;
  Cycles busy = 0;   ///< compute cycles (CoreCounters::busy)
  Cycles serial = 0; ///< busy + ext stalls + write issue + send injection
  OpCounts ops;
};

struct CostPrediction {
  Cycles makespan = 0;
  std::vector<PhasePrediction> phases;
  std::vector<CorePrediction> cores;
  std::uint64_t ext_read_bytes = 0;
  std::uint64_t ext_write_bytes = 0;
  std::uint64_t byte_hops = 0;
  ep::EnergyReport energy;
};

[[nodiscard]] CostPrediction predict_cost(const MappingSpec& spec);

} // namespace esarp::analysis
