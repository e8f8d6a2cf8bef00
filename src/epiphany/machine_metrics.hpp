// Post-run telemetry collection: machine state -> MetricsRegistry, and
// PerfReport/EnergyReport -> run manifest.
//
// The telemetry library (src/telemetry) is deliberately ignorant of the
// simulator, so the translation from machine internals (per-link NoC
// occupancy, ext-port totals, per-core counters, trace-segment totals) into
// named metrics lives here on the epiphany side. Call
// collect_machine_metrics() once after Machine::run(); it is additive over
// the registry the live components (ext port, barriers, channels) already
// populated during the run.
#pragma once

#include "epiphany/energy.hpp"
#include "epiphany/machine.hpp"
#include "epiphany/perf.hpp"
#include "epiphany/power.hpp"
#include "telemetry/manifest.hpp"
#include "telemetry/metrics.hpp"

namespace esarp::ep {

/// Short mesh name for metric labels: "cmesh", "xmesh" or "rmesh".
[[nodiscard]] const char* mesh_label(Mesh mesh);

/// Snapshot machine state into its metrics registry: per-link NoC traffic
/// counters (`noc.link.bytes{dir=E,mesh=cmesh,node=1_2}` + busy cycles),
/// per-mesh aggregates, ext-port totals, per-core counters, on a fault
/// campaign the schedule hash (`fault.schedule_hash_hi`/`_lo`) and — when
/// tracing was on — per-kind traced-cycle totals.
void collect_machine_metrics(Machine& m);

/// Fill the manifest's chip/results sections from a finished run: makespan
/// and throughput figures plus the full energy breakdown — `energy_j`,
/// `avg_watts` and the per-component keys (`energy_j.core_active`,
/// `energy_j.core_idle`, `energy_j.alu`, `energy_j.noc`, `energy_j.elink`,
/// `energy_j.static`). The caller adds workload parameters and attaches a
/// metrics registry itself (typically set_metrics(&machine.metrics()) after
/// collect_machine_metrics()).
void fill_manifest(telemetry::RunManifest& man, const PerfReport& rep,
                   const EnergyReport& energy);

/// Derive the full power report of a finished run: the aggregate
/// EnergyReport always, and — when the machine ran with a PowerSampler —
/// the time-resolved trace and span-attribution profile. Both derived
/// views are checked against the aggregate for energy conservation to
/// within 1e-9 relative (a violation is a model bug and throws
/// ContractViolation), and the trace's power counter tracks are exported
/// into the machine's tracer when tracing is on.
[[nodiscard]] PowerReport collect_power(Machine& m, const PerfReport& rep,
                                        const EnergyParams& p = {});

/// Append the span-attribution result keys of an enabled PowerReport to a
/// manifest: `energy_j.span.<group>` per span group plus
/// `energy_j.attributed` / `energy_j.unattributed`, and the trace's
/// `peak_chip_watts`. No-op when the report is disabled, so callers can
/// pass their PowerReport unconditionally.
void fill_power_manifest(telemetry::RunManifest& man,
                         const PowerReport& power);

} // namespace esarp::ep
