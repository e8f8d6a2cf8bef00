#include "epiphany/machine_metrics.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "common/assert.hpp"

namespace esarp::ep {

const char* mesh_label(Mesh mesh) {
  switch (mesh) {
    case Mesh::kOnChipWrite: return "cmesh";
    case Mesh::kOffChipWrite: return "xmesh";
    case Mesh::kRead: return "rmesh";
  }
  return "?";
}

namespace {

void collect_noc(const Noc& noc, telemetry::MetricsRegistry& reg) {
  for (const Mesh mesh :
       {Mesh::kOnChipWrite, Mesh::kOffChipWrite, Mesh::kRead}) {
    const char* name = mesh_label(mesh);
    const NocStats s = noc.stats(mesh);
    reg.counter(telemetry::labeled("noc.transfers", {{"mesh", name}}))
        .add(s.transfers);
    reg.counter(telemetry::labeled("noc.bytes", {{"mesh", name}}))
        .add(s.bytes);
    reg.counter(telemetry::labeled("noc.byte_hops", {{"mesh", name}}))
        .add(s.byte_hops);
    reg.gauge(telemetry::labeled("noc.max_link_busy_cycles", {{"mesh", name}}))
        .set(static_cast<double>(s.max_link_busy));
    for (const Noc::LinkUsage& link : noc.link_usage(mesh)) {
      const std::string node = std::to_string(link.node.row) + "_" +
                               std::to_string(link.node.col);
      const std::string dir(1, link.direction);
      reg.counter(telemetry::labeled(
                      "noc.link.bytes",
                      {{"mesh", name}, {"node", node}, {"dir", dir}}))
          .add(link.bytes);
      reg.counter(telemetry::labeled(
                      "noc.link.busy_cycles",
                      {{"mesh", name}, {"node", node}, {"dir", dir}}))
          .add(link.busy);
    }
  }
}

void collect_cores(Machine& m, telemetry::MetricsRegistry& reg) {
  Cycles busy = 0, ext_stall = 0, dma_wait = 0, chan_wait = 0,
         barrier_wait = 0;
  std::uint64_t flops = 0;
  for (int id = 0; id < m.core_count(); ++id) {
    const CoreCounters& c = m.core(id).counters;
    busy += c.busy;
    ext_stall += c.ext_stall;
    dma_wait += c.dma_wait;
    chan_wait += c.chan_wait;
    barrier_wait += c.barrier_wait;
    flops += c.ops.flops();
    const std::string core = std::to_string(id);
    reg.counter(telemetry::labeled("core.busy_cycles", {{"core", core}}))
        .add(c.busy);
    reg.counter(telemetry::labeled("core.wait_cycles", {{"core", core}}))
        .add(c.total_wait());
  }
  reg.counter("core.total.busy_cycles").add(busy);
  reg.counter("core.total.ext_stall_cycles").add(ext_stall);
  reg.counter("core.total.dma_wait_cycles").add(dma_wait);
  reg.counter("core.total.chan_wait_cycles").add(chan_wait);
  reg.counter("core.total.barrier_wait_cycles").add(barrier_wait);
  reg.counter("core.total.flops").add(flops);
}

/// The power views of a finished run, when the machine ran with a
/// PowerSampler: the time-resolved trace and the span-attribution profile,
/// each checked against the aggregate `energy` for conservation, and the
/// trace's counter tracks exported into the machine's tracer.
PowerReport collect_power(Machine& m, const PerfReport& rep,
                          const EnergyReport& energy) {
  PowerReport power;
  const PowerSampler* sampler = m.power_sampler();
  if (sampler == nullptr) return power;

  power.enabled = true;
  power.trace = build_power_trace(*sampler, rep);
  power.profile = build_span_profile(*sampler, rep);

  // Conservation: the sampler observed the same quantities as the
  // aggregate counters at the same call sites, so both derived views must
  // reproduce compute_energy() up to floating-point accumulation error. A
  // violation means a recording hook is missing or double-counting.
  const double total = energy.total_j();
  const double tol = 1e-9 * std::max(total, 1e-30);
  ESARP_REQUIRE(std::abs(power.trace.total_j - total) <= tol,
                "power trace violates energy conservation: trace " +
                    std::to_string(power.trace.total_j) + " J vs aggregate " +
                    std::to_string(total) + " J");
  ESARP_REQUIRE(std::abs(power.profile.total_j - total) <= tol,
                "span attribution violates energy conservation: profile " +
                    std::to_string(power.profile.total_j) +
                    " J vs aggregate " + std::to_string(total) + " J");

  export_power_counters(m.tracer(), power.trace);
  return power;
}

} // namespace

void collect_machine_metrics(Machine& m) {
  telemetry::MetricsRegistry& reg = m.metrics();

  collect_noc(m.noc(), reg);
  collect_cores(m, reg);

  const ExtPortStats& ext = m.ext_port().stats();
  reg.counter("ext.read.transactions").add(ext.read_transactions);
  reg.counter("ext.read.bytes").add(ext.read_bytes);
  reg.counter("ext.write.transactions").add(ext.write_transactions);
  reg.counter("ext.write.bytes").add(ext.write_bytes);

  if (const fault::FaultInjector* fi = m.fault_injector()) {
    // Metrics carry doubles; split the 64-bit reproducibility witness in
    // two so zero-tolerance diffs catch schedule drift exactly.
    const std::uint64_t hash = fi->schedule_hash();
    reg.gauge("fault.schedule_hash_hi").set(static_cast<double>(hash >> 32));
    reg.gauge("fault.schedule_hash_lo")
        .set(static_cast<double>(hash & 0xffffffffULL));
  }

  const Tracer& tr = m.tracer();
  if (tr.enabled()) {
    for (const SegmentKind kind :
         {SegmentKind::kCompute, SegmentKind::kExtRead, SegmentKind::kExtWrite,
          SegmentKind::kDmaWait, SegmentKind::kChanSend,
          SegmentKind::kChanRecv, SegmentKind::kBarrier}) {
      const Cycles total = tr.total_cycles(kind);
      if (total == 0) continue;
      reg.counter(
             telemetry::labeled("trace.segment_cycles",
                                {{"kind", to_string(kind)}}))
          .add(total);
    }
  }
}

ChipRun collect_run(Machine& m, Cycles cycles) {
  ChipRun run;
  run.cycles = cycles;
  run.seconds = m.seconds(cycles);
  run.perf = m.report();
  run.energy = compute_energy(run.perf);
  run.power = collect_power(m, run.perf, run.energy);
  collect_machine_metrics(m);
  if (const fault::FaultInjector* fi = m.fault_injector()) {
    run.faults = fi->summary();
    run.degraded = run.faults.failed_cores > 0 ||
                   run.faults.af_pairs_dropped > 0 ||
                   run.faults.af_windows_dropped > 0;
  }
  run.metrics = std::move(m.metrics());
  return run;
}

void fill_manifest(telemetry::RunManifest& man, const ChipRun& run) {
  const PerfReport& rep = run.perf;
  const EnergyReport& energy = run.energy;
  const ChipConfig& cfg = rep.cfg;
  man.add_chip("rows", static_cast<double>(cfg.rows));
  man.add_chip("cols", static_cast<double>(cfg.cols));
  man.add_chip("clock_hz", cfg.clock_hz);
  man.add_chip("local_mem_bytes", static_cast<double>(cfg.local_mem_bytes));
  man.add_chip("link_bytes_per_cycle",
               static_cast<double>(cfg.link_bytes_per_cycle));
  man.add_chip("elink_bytes_per_cycle",
               static_cast<double>(cfg.elink_bytes_per_cycle));
  man.add_chip("ext_read_latency", static_cast<double>(cfg.ext_read_latency));

  man.add_result("makespan_cycles", static_cast<double>(rep.makespan));
  man.add_result("seconds", rep.seconds());
  man.add_result("utilization", rep.utilization());
  man.add_result("flops", static_cast<double>(rep.total_ops().flops()));
  man.add_result("flops_per_second", rep.flops_per_second());
  man.add_result("noc_bytes", static_cast<double>(rep.noc_total.bytes));
  man.add_result("noc_byte_hops", static_cast<double>(rep.noc_total.byte_hops));
  man.add_result("ext_read_bytes", static_cast<double>(rep.ext.read_bytes));
  man.add_result("ext_write_bytes", static_cast<double>(rep.ext.write_bytes));
  man.add_result("energy_j", energy.total_j());
  man.add_result("avg_watts", energy.avg_watts);
  // Component breakdown (same order as EnergyReport::total_j): regression
  // gating on these catches energy shifts that cancel in the total.
  man.add_result("energy_j.core_active", energy.core_active_j);
  man.add_result("energy_j.core_idle", energy.core_idle_j);
  man.add_result("energy_j.alu", energy.alu_j);
  man.add_result("energy_j.noc", energy.noc_j);
  man.add_result("energy_j.elink", energy.elink_j);
  man.add_result("energy_j.static", energy.static_j);
  man.add_result("engine_events", static_cast<double>(rep.engine_events));
  man.add_result("engine_quanta_batched",
                 static_cast<double>(rep.engine_quanta));
  if (run.power.enabled) {
    for (const SpanEnergyProfile::Entry& e : run.power.profile.entries)
      man.add_result("energy_j.span." + e.name, e.joules);
    man.add_result("energy_j.attributed", run.power.profile.attributed_j);
    man.add_result("energy_j.unattributed", run.power.profile.unattributed_j);
    man.add_result("peak_chip_watts", run.power.trace.peak_chip_watts());
  }
  man.set_metrics(&run.metrics);
}

} // namespace esarp::ep
