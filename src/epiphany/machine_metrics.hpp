// Post-run collection: a finished Machine -> ChipRun, and ChipRun -> run
// manifest.
//
// Every mapping runner ends the same way: Machine::run(), then one call of
// collect_run(), which gathers what the run measured (perf report,
// aggregate energy, the power views when sampled, the metrics registry and
// the fault totals) into the ChipRun its result type derives from. The
// telemetry library (src/telemetry) is deliberately ignorant of the
// simulator, so the translation from machine internals (per-link NoC
// occupancy, ext-port totals, per-core counters, trace-segment totals) into
// named metrics lives here on the epiphany side.
#pragma once

#include "epiphany/energy.hpp"
#include "epiphany/machine.hpp"
#include "epiphany/perf.hpp"
#include "epiphany/power.hpp"
#include "fault/injector.hpp"
#include "telemetry/manifest.hpp"
#include "telemetry/metrics.hpp"

namespace esarp::ep {

/// Short mesh name for metric labels: "cmesh", "xmesh" or "rmesh".
[[nodiscard]] const char* mesh_label(Mesh mesh);

/// What one finished chip run measured. FfbpSimResult, GbpSimResult and
/// AfSimResult derive from it and add only their mapping's outputs.
struct ChipRun {
  Cycles cycles = 0;    ///< makespan
  double seconds = 0.0; ///< chip time of the makespan
  PerfReport perf;
  EnergyReport energy;
  /// Time-resolved power trace + span-level energy attribution, filled
  /// when the run's ChipConfig::power enabled the sampler; power.enabled
  /// is false otherwise (power.hpp).
  PowerReport power;
  /// The machine's telemetry registry after the run: what the live
  /// components recorded (ext-port stall histograms, barrier wait and
  /// imbalance, channel blocking, fault counters), the mapping's own
  /// counters and collect_machine_metrics()' snapshot.
  telemetry::MetricsRegistry metrics;
  /// Fault-campaign totals (all zero unless ChipConfig::faults is enabled
  /// — see docs/fault-injection.md). `faults.schedule_hash` is the
  /// reproducibility witness: equal seeds must give equal hashes.
  fault::FaultSummary faults;
  /// True when the campaign degraded the output: fail-stopped cores, or
  /// autofocus pairs (FFBP) or windows (MPMD) dropped. The output is then
  /// an approximation of the fault-free result, not bit-identical to it.
  /// Recovered transfer faults (retries) alone never set this — retried
  /// data is verified exact.
  bool degraded = false;
};

/// Collect the run `m` just finished in `cycles` (Machine::run's return):
/// the perf report, the aggregate energy, the power trace and span profile
/// when the machine ran with a PowerSampler, collect_machine_metrics(), and
/// the fault summary. Both power views are checked against the aggregate
/// for energy conservation to within 1e-9 relative (a violation is a model
/// bug and throws ContractViolation), and the trace's power counter tracks
/// are exported into the machine's tracer when tracing is on. The registry
/// is moved out of `m`, so add mapping-specific metrics before this call.
[[nodiscard]] ChipRun collect_run(Machine& m, Cycles cycles);

/// Snapshot machine state into its metrics registry: per-link NoC traffic
/// counters (`noc.link.bytes{dir=E,mesh=cmesh,node=1_2}` + busy cycles),
/// per-mesh aggregates, ext-port totals, per-core counters, on a fault
/// campaign the schedule hash (`fault.schedule_hash_hi`/`_lo`) and — when
/// tracing was on — per-kind traced-cycle totals. Additive over what the
/// live components recorded during the run.
void collect_machine_metrics(Machine& m);

/// Fill the manifest's chip/results sections from a finished run and
/// attach its registry (which must outlive man.write()): makespan and
/// throughput figures plus the full energy breakdown — `energy_j`,
/// `avg_watts` and the per-component keys (`energy_j.core_active`,
/// `energy_j.core_idle`, `energy_j.alu`, `energy_j.noc`, `energy_j.elink`,
/// `energy_j.static`) — and, when the run was power-sampled, the span
/// attribution (`energy_j.span.<group>` per span group,
/// `energy_j.attributed`, `energy_j.unattributed`) and the trace's
/// `peak_chip_watts`. The caller adds workload parameters.
void fill_manifest(telemetry::RunManifest& man, const ChipRun& run);

} // namespace esarp::ep
