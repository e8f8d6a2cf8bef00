// Reproduces Table I (FFBP rows): execution time, speedup and estimated
// power for (1) the sequential Intel i7-M620 reference, (2) sequential
// FFBP on one Epiphany core, (3) 16-core SPMD FFBP on Epiphany.
//
// The Intel time comes from the analytic Westmere model driven by the
// counted work of the reference implementation; the Epiphany times come
// from the discrete-event chip simulation. The native wall-clock time of
// the reference run on this machine is shown for context only.
#include <cstdint>
#include <iostream>

#include "bench_util.hpp"
#include "core/ffbp_epiphany.hpp"
#include "epiphany/energy.hpp"
#include "epiphany/machine_metrics.hpp"
#include "fault/injector.hpp"
#include "hostmodel/host_model.hpp"
#include "sar/ffbp.hpp"

static int bench_body() {
  using namespace esarp;
  const auto w = bench::make_paper_workload();

  // --- Sequential reference (Intel i7-M620 @ 2.67 GHz model). ---
  std::cerr << "running host-reference FFBP...\n";
  WallTimer timer;
  const auto host_res = sar::ffbp(w.data, w.params);
  const double native_s = timer.elapsed_s();
  const host::HostModel intel;
  const double intel_s = intel.seconds(host_res.host_work);

  // --- Sequential on one simulated Epiphany core @ 1 GHz. ---
  std::cerr << "simulating sequential Epiphany FFBP...\n";
  const auto seq = core::run_ffbp_sequential_epiphany(w.data, w.params);

  // --- Parallel SPMD on 16 simulated cores, timed alone: its engine rate
  // is the 16-core run's own. ---
  std::cerr << "simulating 16-core SPMD FFBP...\n";
  core::FfbpMapOptions opt;
  opt.n_cores = 16;
  WallTimer chip_timer;
  auto par =
      core::run_ffbp_epiphany(w.data, w.params, opt, bench::power_chip());
  const double chip_s = chip_timer.elapsed_s();
  const double speedup = intel_s / par.seconds;

  std::cout << "\n-- simulated parallel run details --\n"
            << par.perf.summary() << par.energy.summary() << "\n";
  std::cout << par.power.profile.table();

  telemetry::RunManifest man("table1_ffbp");
  bench::Report rep(man);
  auto& t = rep.sheet("Table I (FFBP): resources, performance, estimated power",
                      {{"Implementation", "impl"},
                       {"Cores", "cores", bench::kCount},
                       {"Time (ms)", "seconds", bench::kMs, bench::kResult},
                       {"Speedup", "speedup"},
                       {"Power (W)", "power_w"},
                       {"Paper time (ms)", "paper_ms", bench::kCount},
                       {"Paper speedup", "paper_speedup"}});
  t.row("intel_", {"Sequential on Intel i7 @ 2.67 GHz", 1, intel_s, 1.0,
                   intel.params().watts, 1295, 1.0});
  t.row("seq_epiphany_",
        {"Sequential on Epiphany @ 1 GHz", 1, seq.seconds,
         intel_s / seq.seconds, seq.energy.avg_watts, 3582, 0.36});
  t.row({"Parallel on Epiphany @ 1 GHz", 16, par.seconds, speedup,
         par.energy.avg_watts, 305, 4.25});
  t.note("image " + std::to_string(w.params.n_pulses) + "x" +
         std::to_string(w.params.n_range) + ", merge base 2, " +
         std::to_string(w.params.merge_levels()) +
         " iterations, nearest-neighbour interpolation");
  t.note("parallel vs sequential-Epiphany: " +
         Table::num(seq.seconds / par.seconds, 1) + "x (paper: 11.7x)");
  t.note("native host wall time of the reference run: " +
         format_seconds(native_s) + " (informational)");

  // Machine-readable evidence for the headline (16-core SPMD) run.
  ep::fill_manifest(man, par);
  bench::add_workload(man, w.params);
  man.add_workload("n_cores", 16.0);
  bench::add_engine_stats(man, &par.metrics, par.perf.engine_events, chip_s,
                          1);
  man.add_result("speedup_vs_intel", speedup);
  // FNV-1a of the 16-core image: pins every byte the merge kernels produce
  // at this size, on every kernel backend.
  bench::add_hash(man, "ffbp_image_checksum",
                  fault::FaultInjector::checksum(
                      par.image.data(), par.image.size() * sizeof(cf32)));
  bench::add_energy_per_pixel(
      man, par, static_cast<double>(w.params.n_pulses * w.params.n_range));
  return rep.finish();
}

int main() { return esarp::bench::guarded_main("table1_ffbp", bench_body); }
